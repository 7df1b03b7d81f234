package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/erpc"
)

// loadGen is the closed-loop client. Each slot owns its request and
// response msgbufs and a continuation bound once at construction, so
// issuing and completing an RPC allocates nothing. Slots run on the
// client's dispatch goroutine: the first requests are posted there,
// every later one is issued from the previous one's continuation.
type loadGen struct {
	st       *stack
	rpc      *erpc.Rpc
	slots    []slot
	respSize int
	nextID   uint64 // dispatch goroutine only

	stopping atomic.Bool
	inflight atomic.Int64
	// measureStart is the nanotime the measured phase began, 0 outside
	// it. While it is set, each correct completion's latency goes to
	// the window it completed in.
	measureStart atomic.Int64
	windowNs     int64
	windows      []hist // dispatch goroutine only while measuring
	drained      chan struct{}
	drainOnce    sync.Once
	first        chan struct{} // closed at the first correct completion

	attempted, completed atomic.Uint64
	errors, wrong        atomic.Uint64
}

type slot struct {
	g         *loadGen
	sess      *erpc.Session
	req, resp *erpc.Buf
	id        uint64
	t0        int64
	cont      func(error)
}

func newLoadGen(st *stack) (*loadGen, error) {
	w := st.w
	g := &loadGen{
		st:       st,
		rpc:      st.client.Rpc(0),
		slots:    make([]slot, w.window()),
		respSize: w.respSize(),
		nextID:   st.in.idBase,
		drained:  make(chan struct{}),
		first:    make(chan struct{}),
	}
	reqSize := w.reqSize()
	for si := 0; si < w.sessions; si++ {
		sess, err := st.client.CreateSession(0, st.server.Addrs())
		if err != nil {
			return nil, err
		}
		for k := 0; k < w.slotsPerSession; k++ {
			s := &g.slots[si*w.slotsPerSession+k]
			s.g, s.sess = g, sess
			s.req, s.resp = g.rpc.Alloc(reqSize), g.rpc.Alloc(g.respSize)
			copy(s.req.Data()[8:], st.in.payload)
			s.cont = s.done
		}
	}
	return g, nil
}

func (g *loadGen) start() {
	g.inflight.Store(int64(len(g.slots)))
	g.rpc.Post(func() {
		for i := range g.slots {
			g.slots[i].issue()
		}
	})
}

func (s *slot) issue() {
	g := s.g
	s.id = g.nextID
	g.nextID++
	g.attempted.Add(1)
	binary.LittleEndian.PutUint64(s.req.Data(), s.id)
	s.t0 = nanotime()
	tr := g.st.tracer
	if tr != nil {
		tr.begin(s.id, s.t0)
	}
	g.rpc.EnqueueRequest(s.sess, g.st.w.reqType, s.req, s.resp, s.cont)
	if tr != nil {
		tr.enqueued(s.id, nanotime())
	}
}

func (s *slot) done(err error) {
	t := nanotime()
	g := s.g
	if g.st.tracer != nil {
		g.st.tracer.continued(s.id, t)
	}
	switch {
	case err != nil:
		g.errors.Add(1)
	case !s.verify():
		g.wrong.Add(1)
	default:
		g.st.audit.complete(s.id)
		if start := g.measureStart.Load(); start != 0 {
			if w := (t - start) / g.windowNs; w < int64(len(g.windows)) {
				g.windows[w].add(t - s.t0)
			}
		}
		if g.completed.Add(1) == 1 {
			close(g.first)
		}
	}
	if err != nil || g.stopping.Load() {
		if g.inflight.Add(-1) == 0 && g.stopping.Load() {
			g.drainOnce.Do(func() { close(g.drained) })
		}
		return
	}
	s.issue()
}

// verify checks the response bytes against what the server must have
// sent for this request.
func (s *slot) verify() bool {
	resp := s.resp.Data()
	switch s.g.st.w.reqType {
	case reqEcho:
		return bytes.Equal(resp, s.req.Data())
	case reqWrite:
		req := s.req.Data()
		return len(resp) == smallMsg &&
			binary.LittleEndian.Uint64(resp) == s.id &&
			binary.LittleEndian.Uint32(resp[8:]) == crc32.Checksum(req, castagnoli) &&
			binary.LittleEndian.Uint32(resp[12:]) == uint32(len(req))
	case reqRead:
		return len(resp) == s.g.respSize &&
			binary.LittleEndian.Uint64(resp) == s.id &&
			bytes.Equal(resp[8:], s.g.st.in.readResponse(s.id, s.g.respSize))
	}
	return false
}

// stop ends issuing and waits up to timeout for every RPC in flight to
// resolve. It reports whether they all did.
func (g *loadGen) stop(timeout time.Duration) bool {
	g.stopping.Store(true)
	if g.inflight.Load() == 0 {
		g.drainOnce.Do(func() { close(g.drained) })
	}
	select {
	case <-g.drained:
		return true
	case <-time.After(timeout):
		return false
	}
}

// freeBufs returns the slots' msgbufs to the client endpoint, so its
// allocator must balance afterwards.
func (g *loadGen) freeBufs(timeout time.Duration) bool {
	done := make(chan struct{})
	g.rpc.Post(func() {
		for i := range g.slots {
			g.rpc.Free(g.slots[i].req)
			g.rpc.Free(g.slots[i].resp)
		}
		close(done)
	})
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// epoch anchors nanotime; readings are monotonic and never zero.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) + 1 }
