package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/erpc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The tracer times every layer from outside, at public boundaries: a
// pass-through wrapper around each endpoint's transport (SendBurst,
// RecvBurst and the SetWake callback), the handler function, and the
// load generator's EnqueueRequest call and continuation. A request is
// identified by the id in its first 8 payload bytes, which responses
// carry back.
//
// Each RPC is cut into consecutive segments at the points below; a
// segment whose two end points were both observed is a span, and the
// time between observed points that are not neighbours (a frame that
// arrived without a wake, say) is left unattributed.
const (
	ptEnqStart     = iota // client: EnqueueRequest called
	ptEnqEnd              // client: EnqueueRequest returned
	ptCliTxStart          // client: SendBurst carrying request packet 0 called
	ptCliTxEnd            // ... returned
	ptSrvWake             // server: wake callback for that frame
	ptSrvRxStart          // server: RecvBurst returning request packet 0 called
	ptSrvRxEnd            // ... returned
	ptSrvRxLast           // server: RecvBurst returning the last request packet returned
	ptHandlerStart        // server: Handler.Fn called
	ptHandlerEnd          // ... returned
	ptSrvTxStart          // server: SendBurst carrying response packet 0 called
	ptSrvTxEnd            // ... returned
	ptCliWake             // client: wake callback for that frame
	ptCliRxStart          // client: RecvBurst returning response packet 0 called
	ptCliRxEnd            // ... returned
	ptCliRxLast           // client: RecvBurst returning the last response packet returned
	ptContStart           // client: continuation called
	numPoints
)

const numSegs = numPoints - 1

// Layers a segment's time is charged to.
const (
	layerCore = iota
	layerTransport
	layerNet
	layerHandler
	numLayers
)

var layerNames = [numLayers]string{"core", "transport", "net", "handler"}

// segs names segment k, which runs from point k to point k+1.
var segs = [numSegs]struct {
	name  string
	layer int
}{
	{"core.enqueue", layerCore},
	{"core.client_tx_wait", layerCore},
	{"transport.tx_burst", layerTransport},
	{"net.deliver", layerNet},
	{"core.handoff", layerCore},
	{"transport.rx_burst", layerTransport},
	{"core.req_transfer", layerCore},
	{"core.server_proto", layerCore},
	{"core.handler", layerHandler},
	{"core.server_tx_wait", layerCore},
	{"transport.tx_burst", layerTransport},
	{"net.deliver", layerNet},
	{"core.handoff", layerCore},
	{"transport.rx_burst", layerTransport},
	{"core.resp_transfer", layerCore},
	{"core.client_proto", layerCore},
}

// rpcRec holds one RPC's points. Each point is written by one
// goroutine; the client's dispatch goroutine reads the record once
// the ring of records has come round to it again, long after every
// writer is done with it.
type rpcRec struct {
	id   atomic.Uint64
	ts   [numPoints]atomic.Int64
	open bool // begun and not yet folded into the totals; client goroutine only
}

const (
	recCap     = 1024 // records in the ring; far more than any window
	spanSample = 16   // one RPC in spanSample has its spans logged
	spanCap    = 1 << 16
)

// span is one logged span. parent indexes the log; -1 marks an RPC's
// root span, whose duration is the round trip.
type span struct {
	name       int16 // index into segs, or -1 for the root
	parent     int32
	id         uint64
	start, end int64
}

type tracer struct {
	recs [recCap]rpcRec
	sent sentTable
	ends []*tracedTransport

	// Client dispatch goroutine only.
	rpcs       uint64
	segHist    [numSegs]hist
	layerNs    [numLayers]float64
	unattribNs float64
	rttNs      float64
	spans      []span
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, spanCap)}
}

func (t *tracer) rec(id uint64) *rpcRec {
	r := &t.recs[id%recCap]
	if r.id.Load() != id {
		return nil
	}
	return r
}

func setOnce(r *rpcRec, pt int, ts int64) {
	if r.ts[pt].Load() == 0 {
		r.ts[pt].Store(ts)
	}
}

// begin opens id's record, folding in the RPC that used it before.
func (t *tracer) begin(id uint64, ts int64) {
	r := &t.recs[id%recCap]
	if r.open {
		t.fold(r)
	}
	for i := range r.ts {
		r.ts[i].Store(0)
	}
	r.id.Store(id)
	r.ts[ptEnqStart].Store(ts)
	r.open = true
}

func (t *tracer) enqueued(id uint64, ts int64) {
	if r := t.rec(id); r != nil {
		r.ts[ptEnqEnd].Store(ts)
	}
}

func (t *tracer) continued(id uint64, ts int64) {
	if r := t.rec(id); r != nil {
		setOnce(r, ptContStart, ts)
	}
}

// flush folds every completed record still open.
func (t *tracer) flush() {
	for i := range t.recs {
		if r := &t.recs[i]; r.open && r.ts[ptContStart].Load() != 0 {
			t.fold(r)
		}
	}
}

// fold adds a finished RPC to the segment totals and, for sampled
// ids, its spans to the log.
func (t *tracer) fold(r *rpcRec) {
	r.open = false
	start, end := r.ts[ptEnqStart].Load(), r.ts[ptContStart].Load()
	if end == 0 {
		return // never completed
	}
	id := r.id.Load()
	logged := id%spanSample == 0 && len(t.spans)+numPoints <= cap(t.spans)
	root := int32(len(t.spans))
	if logged {
		t.spans = append(t.spans, span{name: -1, parent: -1, id: id, start: start, end: end})
	}
	t.rpcs++
	t.rttNs += float64(end - start)
	prev, prevT := 0, start
	for p := 1; p < numPoints; p++ {
		ts := r.ts[p].Load()
		if ts == 0 {
			continue
		}
		if ts < prevT {
			ts = prevT // points observed out of order by racing goroutines
		}
		d := ts - prevT
		if p == prev+1 {
			t.segHist[prev].add(d)
			t.layerNs[segs[prev].layer] += float64(d)
			if logged {
				t.spans = append(t.spans, span{name: int16(prev), parent: root, id: id, start: prevT, end: ts})
			}
		} else {
			t.unattribNs += float64(d)
		}
		prev, prevT = p, ts
	}
}

// writeSpans writes the span log as tab-separated lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tparent\tid\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		name := "rpc"
		if s.name >= 0 {
			name = segs[s.name].name
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.id, name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrapHandler times Handler.Fn. The id is read first: the context is
// recycled once the handler has enqueued its response.
func (t *tracer) wrapHandler(fn func(*erpc.ReqContext)) func(*erpc.ReqContext) {
	return func(ctx *erpc.ReqContext) {
		id := binary.LittleEndian.Uint64(ctx.Req)
		t0 := nanotime()
		fn(ctx)
		t1 := nanotime()
		if r := t.rec(id); r != nil {
			setOnce(r, ptHandlerStart, t0)
			setOnce(r, ptHandlerEnd, t1)
		}
	}
}

// sentTable remembers when each recently sent frame's SendBurst
// returned, keyed by its source and header, so the receiving side can
// time the frame's delivery up to its wake.
type sentTable struct {
	mu   sync.Mutex
	keys [sentCap]pktKey
	ts   [sentCap]int64
}

const sentCap = 4096

type pktKey struct{ a, b uint64 }

func keyOf(src transport.Addr, h *wire.Header) pktKey {
	return pktKey{
		a: uint64(src.Node)<<48 | uint64(src.Port)<<32 | uint64(h.PktType)<<16 | uint64(h.DstSession),
		b: h.ReqNum<<16 | uint64(h.PktNum),
	}
}

func (k pktKey) slot() int {
	return int((k.a*0x9E3779B97F4A7C15 ^ k.b*0xC2B2AE3D27D4EB4F) >> 52 % sentCap)
}

func (s *sentTable) put(k pktKey, ts int64) {
	i := k.slot()
	s.mu.Lock()
	s.keys[i], s.ts[i] = k, ts
	s.mu.Unlock()
}

func (s *sentTable) get(k pktKey) int64 {
	i := k.slot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.keys[i] != k {
		return 0
	}
	return s.ts[i]
}

// tracedTransport is the pass-through wrapper around one endpoint's
// *transport.UDP. Its counters and histograms are touched only by the
// endpoint's dispatch goroutine, except the wake fields, which the
// socket reader goroutine writes.
type tracedTransport struct {
	transport.Transport
	t      *tracer
	client bool
	local  transport.Addr

	lastWake atomic.Int64
	wakes    atomic.Uint64

	hdr                        wire.Header
	txKeys                     []pktKey
	txIDs                      []uint64
	txCalls, txFrames          uint64
	rxCalls, rxEmpty, rxFrames uint64
	txBurst, rxBurst           hist
	handoff, deliver           hist
	msgs                       [256]msgEntry
}

// msgEntry maps a multi-packet message being received to its RPC.
type msgEntry struct {
	sess uint16
	req  uint64
	id   uint64
}

func (t *tracer) wrap(u *transport.UDP, client bool) *tracedTransport {
	x := &tracedTransport{
		Transport: u,
		t:         t,
		client:    client,
		local:     u.LocalAddr(),
		txKeys:    make([]pktKey, 0, 64),
		txIDs:     make([]uint64, 0, 64),
	}
	t.ends = append(t.ends, x)
	return x
}

// SetWake timestamps every wake before passing it on.
func (x *tracedTransport) SetWake(fn func()) {
	x.Transport.SetWake(func() {
		x.lastWake.Store(nanotime())
		x.wakes.Add(1)
		fn()
	})
}

// payloadID returns the request id a packet-0 data frame carries.
func payloadID(data []byte) (uint64, bool) {
	if len(data) < wire.HeaderSize+8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(data[wire.HeaderSize:]), true
}

// SendBurst times the call, then records the frames' send time.
// Frames are decoded before the call, while the caller still owns
// them either way.
func (x *tracedTransport) SendBurst(frames []transport.Frame) {
	x.txKeys, x.txIDs = x.txKeys[:0], x.txIDs[:0]
	own := wire.PktResp
	if x.client {
		own = wire.PktReq
	}
	for i := range frames {
		if x.hdr.Decode(frames[i].Data) != nil {
			continue
		}
		x.txKeys = append(x.txKeys, keyOf(x.local, &x.hdr))
		if x.hdr.PktType == own && x.hdr.PktNum == 0 {
			if id, ok := payloadID(frames[i].Data); ok {
				x.txIDs = append(x.txIDs, id)
			}
		}
	}
	t0 := nanotime()
	x.Transport.SendBurst(frames)
	t1 := nanotime()
	x.txCalls++
	x.txFrames += uint64(len(frames))
	x.txBurst.add(t1 - t0)
	for _, k := range x.txKeys {
		x.t.sent.put(k, t1)
	}
	ptStart := ptSrvTxStart
	if x.client {
		ptStart = ptCliTxStart
	}
	for _, id := range x.txIDs {
		if r := x.t.rec(id); r != nil {
			setOnce(r, ptStart, t0)
			setOnce(r, ptStart+1, t1)
		}
	}
}

// RecvBurst times the call and the handoff from the wake that
// preceded it, and records the RPC points of the frames it returns.
func (x *tracedTransport) RecvBurst(frames []transport.Frame) int {
	t0 := nanotime()
	n := x.Transport.RecvBurst(frames)
	t1 := nanotime()
	x.rxCalls++
	if n == 0 {
		x.rxEmpty++
		return 0
	}
	x.rxFrames += uint64(n)
	x.rxBurst.add(t1 - t0)
	// A wake stamped after the call returned belongs to a later frame.
	var woke int64
	if w := x.lastWake.Load(); w != 0 && w <= t1 && x.lastWake.CompareAndSwap(w, 0) {
		woke = w
		x.handoff.add(t0 - w)
	}
	own, ptWake := wire.PktReq, ptSrvWake
	if x.client {
		own, ptWake = wire.PktResp, ptCliWake
	}
	for i := 0; i < n; i++ {
		f := &frames[i]
		if x.hdr.Decode(f.Data) != nil {
			continue
		}
		if i == 0 && woke != 0 {
			if sent := x.t.sent.get(keyOf(f.Addr, &x.hdr)); sent != 0 {
				x.deliver.add(woke - sent)
			}
		}
		if x.hdr.PktType != own {
			continue
		}
		last := wire.NumPkts(x.hdr.MsgSize, dataPerPkt) - 1
		var r *rpcRec
		if x.hdr.PktNum == 0 {
			id, ok := payloadID(f.Data)
			if !ok {
				continue
			}
			if r = x.t.rec(id); r == nil {
				continue
			}
			if i == 0 && woke != 0 {
				setOnce(r, ptWake, woke)
			}
			setOnce(r, ptWake+1, t0)
			setOnce(r, ptWake+2, t1)
			if last > 0 {
				x.msgs[x.hdr.ReqNum%uint64(len(x.msgs))] = msgEntry{sess: x.hdr.DstSession, req: x.hdr.ReqNum, id: id}
			}
		} else if int(x.hdr.PktNum) == last {
			e := &x.msgs[x.hdr.ReqNum%uint64(len(x.msgs))]
			if e.sess != x.hdr.DstSession || e.req != x.hdr.ReqNum {
				continue
			}
			r = x.t.rec(e.id)
		}
		if r != nil && int(x.hdr.PktNum) == last {
			setOnce(r, ptWake+3, t1)
		}
	}
	return n
}
