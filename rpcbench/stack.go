package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"time"

	"repro/erpc"
	"repro/internal/transport"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// auditCap bounds the request ids one stack can issue (bitmaps of
// 4 MiB each; pages are touched only as ids are used).
const auditCap = 1 << 25

// audit is the per-id execution record: the server marks every id it
// executes, the client every id it completes correctly. Each side's
// bitmap is touched only by its own dispatch goroutine and compared
// after both have stopped. One audit serves a run's stacks in turn,
// so its memory is allocated and touched once.
type audit struct {
	base       uint64
	executed   []uint64
	completed  []uint64
	used       uint64 // bitmap words touched, as ids count up from base
	dupExec    uint64 // server side: an id executed a second time
	dupDone    uint64 // client side: an id completed a second time
	outOfRange uint64
}

func newAudit(base uint64) *audit {
	return &audit{base: base, executed: make([]uint64, auditCap/64), completed: make([]uint64, auditCap/64)}
}

// reset clears the audit for the next stack.
func (a *audit) reset() {
	clear(a.executed[:a.used])
	clear(a.completed[:a.used])
	a.used, a.dupExec, a.dupDone, a.outOfRange = 0, 0, 0, 0
}

// mark sets id's bit and reports whether it was already set.
func (a *audit) mark(bm []uint64, id uint64) (dup, ok bool) {
	i := id - a.base
	if id < a.base || i >= auditCap {
		return false, false
	}
	w, b := &bm[i/64], uint64(1)<<(i%64)
	dup = *w&b != 0
	*w |= b
	return dup, true
}

func (a *audit) execute(id uint64) {
	dup, ok := a.mark(a.executed, id)
	if !ok {
		a.outOfRange++
	} else if dup {
		a.dupExec++
	}
}

func (a *audit) complete(id uint64) {
	dup, ok := a.mark(a.completed, id)
	if !ok {
		a.outOfRange++
	} else if dup {
		a.dupDone++
	}
}

// unexecuted counts ids the client completed that the server never ran.
func (a *audit) unexecuted() uint64 {
	var n uint64
	for i, c := range a.completed[:a.used] {
		n += uint64(bits.OnesCount64(c &^ a.executed[i]))
	}
	return n
}

// stack is one deployed benchmark target: a Server and a Client, one
// endpoint each on the default UDP engine, in this process.
type stack struct {
	w      *workload
	in     *inputs
	srvTrs []*transport.UDP
	cliTrs []*transport.UDP
	server *erpc.Server
	client *erpc.Client
	gen    *loadGen
	audit  *audit
	tracer *tracer // nil when untraced
	setup  time.Duration
	closed bool
}

// newStack binds, wires and starts a stack and runs it until its first
// RPC completes; setup is the time that took. The stack audits into a,
// which must be clear. With tr non-nil both endpoints run on tracing
// wrappers and the handlers are timed.
func newStack(w *workload, in *inputs, a *audit, tr *tracer) (*stack, error) {
	t0 := time.Now()
	srvTrs, err := erpc.ListenUDP(1, "127.0.0.1", 0, 1)
	if err != nil {
		return nil, fmt.Errorf("bind server: %w", err)
	}
	cliTrs, err := erpc.ListenUDP(2, "127.0.0.1", 0, 1)
	if err != nil {
		srvTrs[0].Close()
		return nil, fmt.Errorf("bind client: %w", err)
	}
	st := &stack{w: w, in: in, audit: a, srvTrs: srvTrs, cliTrs: cliTrs, tracer: tr}
	if err := erpc.AddPeersFrom(cliTrs, srvTrs); err != nil {
		st.closeTransports()
		return nil, err
	}
	if err := erpc.AddPeersFrom(srvTrs, cliTrs); err != nil {
		st.closeTransports()
		return nil, err
	}
	if mtu := srvTrs[0].MTU(); mtu != transport.DefaultUDPMTU {
		st.closeTransports()
		return nil, fmt.Errorf("transport MTU %d, want %d", mtu, transport.DefaultUDPMTU)
	}
	nx := erpc.NewNexus()
	nx.Register(w.reqType, erpc.Handler{Fn: st.handler()})
	srvCfgs, cliCfgs := erpc.UDPConfigs(srvTrs), erpc.UDPConfigs(cliTrs)
	if tr != nil {
		srvCfgs[0].Transport = tr.wrap(srvTrs[0], false)
		cliCfgs[0].Transport = tr.wrap(cliTrs[0], true)
	}
	st.server = erpc.NewServer(nx, srvCfgs, 1)
	st.client = erpc.NewClient(nx, cliCfgs)
	st.gen, err = newLoadGen(st)
	if err != nil {
		st.closeTransports()
		return nil, err
	}
	st.server.Start()
	st.client.Start()
	st.gen.start()
	select {
	case <-st.gen.first:
	case <-time.After(10 * time.Second):
		st.teardown()
		return nil, fmt.Errorf("no RPC completed within 10 s of setup")
	}
	st.setup = time.Since(t0)
	return st, nil
}

// handler returns the workload's request handler. It runs on the
// server's dispatch goroutine and audits every execution.
func (st *stack) handler() func(*erpc.ReqContext) {
	respSize := st.w.respSize()
	var fn func(*erpc.ReqContext)
	switch st.w.reqType {
	case reqEcho:
		fn = func(ctx *erpc.ReqContext) {
			out := ctx.AllocResponse(len(ctx.Req))
			copy(out, ctx.Req)
			ctx.EnqueueResponse()
		}
	case reqWrite:
		fn = func(ctx *erpc.ReqContext) {
			out := ctx.AllocResponse(smallMsg)
			copy(out[:8], ctx.Req[:8])
			binary.LittleEndian.PutUint32(out[8:], crc32.Checksum(ctx.Req, castagnoli))
			binary.LittleEndian.PutUint32(out[12:], uint32(len(ctx.Req)))
			ctx.EnqueueResponse()
		}
	case reqRead:
		fn = func(ctx *erpc.ReqContext) {
			id := binary.LittleEndian.Uint64(ctx.Req)
			out := ctx.AllocResponse(respSize)
			binary.LittleEndian.PutUint64(out, id)
			copy(out[8:], st.in.readResponse(id, respSize))
			ctx.EnqueueResponse()
		}
	}
	audited := func(ctx *erpc.ReqContext) {
		st.audit.execute(binary.LittleEndian.Uint64(ctx.Req))
		fn(ctx)
	}
	if st.tracer != nil {
		return st.tracer.wrapHandler(audited)
	}
	return audited
}

// checks are the correctness results of one stack's life.
type checks struct {
	attempted, completed         uint64
	rpcErrors, wrongBytes        uint64
	dupExec, dupDone, unexecuted uint64
	outOfRange, unresolved       uint64
	srvAllocs, srvFrees          uint64
	srvRetained                  uint64 // server msgbufs a drained server may still hold
	cliAllocs, cliFrees          uint64
	undrained                    uint64 // stacks whose endpoints did not drain
}

func (c *checks) failures() uint64 {
	return c.rpcErrors + c.wrongBytes + c.dupExec + c.dupDone + c.unexecuted + c.outOfRange + c.unresolved
}

func (c *checks) ok() bool {
	return c.failures() == 0 && c.undrained == 0 &&
		c.srvAllocs-c.srvFrees == c.srvRetained && c.cliAllocs == c.cliFrees
}

func (c *checks) add(o *checks) {
	c.attempted += o.attempted
	c.completed += o.completed
	c.rpcErrors += o.rpcErrors
	c.wrongBytes += o.wrongBytes
	c.dupExec += o.dupExec
	c.dupDone += o.dupDone
	c.unexecuted += o.unexecuted
	c.outOfRange += o.outOfRange
	c.unresolved += o.unresolved
	c.srvAllocs += o.srvAllocs
	c.srvFrees += o.srvFrees
	c.srvRetained += o.srvRetained
	c.cliAllocs += o.cliAllocs
	c.cliFrees += o.cliFrees
	c.undrained += o.undrained
}

// counters are the program's own counters over a stack's life, read
// after its endpoints stopped and its sockets closed.
type counters struct {
	cli, srv                 erpc.Stats
	syscalls, gsoSegs, drops uint64
	groAliased, groCopied    uint64
	fastPuts, sharedPuts     uint64
}

// finish stops issuing, waits for every RPC in flight, drains and
// stops both endpoints, closes the sockets and audits the run.
func (st *stack) finish() (checks, counters) {
	var c checks
	if !st.gen.stop(10 * time.Second) {
		// Busy slots still own their msgbufs: leave them allocated.
		c.unresolved = uint64(st.gen.inflight.Load())
	} else if !st.gen.freeBufs(5 * time.Second) {
		c.undrained = 1
	}
	if !st.server.Drain(5 * time.Second) {
		c.undrained = 1
	}
	st.client.Stop()
	st.closeTransports()

	g := st.gen
	c.attempted = g.attempted.Load()
	c.completed = g.completed.Load()
	c.rpcErrors = g.errors.Load()
	c.wrongBytes = g.wrong.Load()
	c.dupExec, c.dupDone = st.audit.dupExec, st.audit.dupDone
	c.outOfRange = st.audit.outOfRange
	st.audit.used = min((g.nextID-st.audit.base)/64+1, auditCap/64)
	c.unexecuted = st.audit.unexecuted()
	c.srvAllocs, c.srvFrees = st.server.Rpc(0).AllocBalance()
	if st.w.respPkts > 0 {
		// A server slot keeps its last response for retransmission
		// until the slot's next request, so after a drain
		// each client slot's last multi-packet response is still
		// allocated. Single-packet responses use the slot's
		// preallocated msgbuf and hold nothing from the allocator.
		c.srvRetained = uint64(st.w.window())
	}
	c.cliAllocs, c.cliFrees = st.client.Rpc(0).AllocBalance()

	var k counters
	k.cli, k.srv = st.client.Stats(), st.server.Stats()
	for _, u := range st.transports() {
		k.syscalls += u.Syscalls.Load()
		k.gsoSegs += u.GsoSegments.Load()
		k.drops += u.Drops.Load()
		k.groAliased += u.GroAliasedSegs.Load()
		k.groCopied += u.GroCopiedSegs.Load()
		ps := u.RxPoolStats()
		k.fastPuts += ps.FastPuts
		k.sharedPuts += ps.SharedPuts
	}
	return c, k
}

// teardown stops a stack whose results are not wanted.
func (st *stack) teardown() {
	st.gen.stopping.Store(true)
	st.server.Stop()
	st.client.Stop()
	st.closeTransports()
}

func (st *stack) transports() []*transport.UDP {
	return []*transport.UDP{st.srvTrs[0], st.cliTrs[0]}
}

func (st *stack) closeTransports() {
	if st.closed {
		return
	}
	st.closed = true
	for _, u := range st.transports() {
		u.Close()
	}
}
