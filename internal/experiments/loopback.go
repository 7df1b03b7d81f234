package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/msgbuf"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The loopback UDP measurements behind the gso sweep (see gso.go): a
// windowed small-RPC echo workload between two real UDP endpoints, and
// a TX blast that isolates the send path. The paper's NIC datapath
// amortizes DMA doorbells over bursts of up to 16 packets (§4.2); on a
// commodity kernel the syscall boundary plays the doorbell's role, and
// syscalls-per-RPC is the direct measure of how well a transport
// engine amortizes it.

// UDPSyscallResult is one sweep point: a windowed echo workload over
// UDP loopback on one syscall engine.
type UDPSyscallResult struct {
	Engine        string  `json:"engine"`
	Window        int     `json:"window"`
	Krps          float64 `json:"krps"`
	WallSec       float64 `json:"wall_sec"`
	SyscallsPerOp float64 `json:"syscalls_per_op"`
	MmsgBatches   uint64  `json:"mmsg_batches"`
	Completed     uint64  `json:"completed"`
	// GsoSegments/GroBatches are the segmentation-offload counters
	// summed over both sockets (gso engine only): datagrams sent inside
	// TX supersegments and supersegments received GRO-coalesced.
	GsoSegments uint64 `json:"gso_segments,omitempty"`
	GroBatches  uint64 `json:"gro_batches,omitempty"`
	// GroAliasedSegs/GroCopiedSegs split the RX side of a coalesced
	// receive (gso engine only): segments handed to the datapath as
	// frames aliasing the refcounted supersegment buffer versus
	// segments copied out to pooled buffers (the fallback when the
	// alias budget is exhausted). A healthy run keeps the copied count
	// at zero.
	GroAliasedSegs uint64 `json:"gro_aliased_segs,omitempty"`
	GroCopiedSegs  uint64 `json:"gro_copied_segs,omitempty"`
	// ZeroCopyTxPerOp is the msgbuf-aliased (uncopied) TX frames per
	// completed RPC, summed over both endpoints — 2.0 when every
	// request packet 0 (client) and every response packet 0 (server)
	// rode the zero-copy path.
	ZeroCopyTxPerOp float64 `json:"zero_copy_tx_per_op,omitempty"`
	// BestOf is how many runs this row is the best of (see GsoSweep
	// on loopback bimodality); 0 for a single run.
	BestOf int `json:"best_of,omitempty"`
}

// udpEchoMeasure runs one sweep point: `window` concurrent 32-byte
// echo RPCs over loopback between two endpoints built by newTr (one of
// the transport constructors, selecting the syscall engine), each on
// the real multi-endpoint runtime. It reports throughput and the
// syscall cost per completed RPC summed over both sockets.
func udpEchoMeasure(newTr func(transport.Addr, string) (*transport.UDP, error), window int, opts Options) UDPSyscallResult {
	opts = opts.norm()
	srvTr, err := newTr(transport.Addr{Node: 1, Port: 0}, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srvTr.Close()
	cliTr, err := newTr(transport.Addr{Node: 2, Port: 0}, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer cliTr.Close()
	if err := srvTr.AddPeer(cliTr.LocalAddr(), cliTr.BoundAddr().String()); err != nil {
		panic(err)
	}
	if err := cliTr.AddPeer(srvTr.LocalAddr(), srvTr.BoundAddr().String()); err != nil {
		panic(err)
	}

	// The endpoints run as the real multi-endpoint runtime does — one
	// dispatch goroutine each, parking on its own transport wake — so
	// wall time reflects the deployed pipeline, not a synthetic driver.
	nx := EchoNexus(32)
	server := core.NewServer(nx, []core.Config{{Transport: srvTr, Clock: sim.NewWallClock()}}, 1)
	client := core.NewClient(nx, []core.Config{{Transport: cliTr, Clock: sim.NewWallClock()}})
	sess, err := client.CreateSession(0, server.Addrs())
	if err != nil {
		panic(err)
	}
	server.Start()
	client.Start()
	defer server.Stop()
	defer client.Stop()

	const reqSize = 32
	total := int(20_000 * opts.Scale)
	if total < 1_000 {
		total = 1_000
	}
	warm := 500
	if warm > total/2 {
		warm = total / 2
	}

	r := client.Rpc(0)
	reqs := make([]*msgbuf.Buf, window)
	resps := make([]*msgbuf.Buf, window)

	// runN issues n echo RPCs with `window` in flight (every completion
	// re-issues from the dispatch goroutine) and waits for the last.
	runN := func(n int) {
		done := make(chan struct{})
		r.Post(func() {
			issued, completed := 0, 0
			var issue func(slot int)
			issue = func(slot int) {
				if issued >= n {
					return
				}
				issued++
				r.EnqueueRequest(sess, 1, reqs[slot], resps[slot], func(err error) {
					if err != nil {
						panic(err)
					}
					if completed++; completed == n {
						close(done)
						return
					}
					issue(slot)
				})
			}
			for s := 0; s < window && s < n; s++ {
				issue(s)
			}
		})
		<-done
	}

	// Warm-up primes pools, session state and the engine arrays; the
	// buffers are allocated on the dispatch goroutine like a real app.
	alloced := make(chan struct{})
	r.Post(func() {
		for i := range reqs {
			reqs[i], resps[i] = r.Alloc(reqSize), r.Alloc(reqSize)
		}
		close(alloced)
	})
	<-alloced
	runN(warm)

	// readZC snapshots both endpoints' zero-copy TX counters on their
	// own dispatch contexts (Stats is dispatch-goroutine state): the
	// client aliases request packet 0, the server response packet 0,
	// so the end-to-end path measures 2 aliased frames per echo RPC.
	srv := server.Rpc(0)
	readZC := func() uint64 {
		var cli, rsp uint64
		cliDone, srvDone := make(chan struct{}), make(chan struct{})
		r.Post(func() { cli = r.Stats.ZeroCopyTx; close(cliDone) })
		srv.Post(func() { rsp = srv.Stats.ZeroCopyTx; close(srvDone) })
		<-cliDone
		<-srvDone
		return cli + rsp
	}

	sys0 := srvTr.Syscalls.Load() + cliTr.Syscalls.Load()
	bat0 := srvTr.MmsgBatches.Load() + cliTr.MmsgBatches.Load()
	seg0 := srvTr.GsoSegments.Load() + cliTr.GsoSegments.Load()
	gro0 := srvTr.GroBatches.Load() + cliTr.GroBatches.Load()
	ali0 := srvTr.GroAliasedSegs.Load() + cliTr.GroAliasedSegs.Load()
	cop0 := srvTr.GroCopiedSegs.Load() + cliTr.GroCopiedSegs.Load()
	zc0 := readZC()
	t0 := time.Now()
	runN(total - warm)
	wall := time.Since(t0)
	sys := srvTr.Syscalls.Load() + cliTr.Syscalls.Load() - sys0
	bat := srvTr.MmsgBatches.Load() + cliTr.MmsgBatches.Load() - bat0

	measured := uint64(total - warm)
	res := UDPSyscallResult{
		Engine:      srvTr.Engine(),
		Window:      window,
		WallSec:     wall.Seconds(),
		MmsgBatches: bat,
		Completed:   measured,
		GsoSegments: srvTr.GsoSegments.Load() + cliTr.GsoSegments.Load() - seg0,
		GroBatches:  srvTr.GroBatches.Load() + cliTr.GroBatches.Load() - gro0,
		GroAliasedSegs: srvTr.GroAliasedSegs.Load() +
			cliTr.GroAliasedSegs.Load() - ali0,
		GroCopiedSegs: srvTr.GroCopiedSegs.Load() +
			cliTr.GroCopiedSegs.Load() - cop0,
	}
	if wall > 0 {
		res.Krps = float64(measured) / wall.Seconds() / 1e3
	}
	if measured > 0 {
		res.SyscallsPerOp = float64(sys) / float64(measured)
		res.ZeroCopyTxPerOp = float64(readZC()-zc0) / float64(measured)
	}
	return res
}

// UDPTxBlastResult is one TX-capacity point: how fast SendBurst can
// push 16-frame bursts into the kernel. Unlike the RPC sweep, this is
// purely syscall-bound (no wake/park pipeline), so it isolates the
// send-side amortization deterministically.
type UDPTxBlastResult struct {
	Engine        string  `json:"engine"`
	Mpps          float64 `json:"mpps"`
	WallSec       float64 `json:"wall_sec"`
	SyscallsPerOp float64 `json:"syscalls_per_pkt"`
	Packets       uint64  `json:"packets"`
	// GsoSegments counts datagrams sent inside TX supersegments, and
	// SegsPerSyscall the supersegment amortization per kernel crossing
	// (gso engine only): how many datagrams each syscall — and, on
	// loopback, each kernel stack traversal — carried.
	GsoSegments    uint64  `json:"gso_segments,omitempty"`
	SegsPerSyscall float64 `json:"segments_per_syscall,omitempty"`
	// BestOf is how many runs this row is the best of; 0 for one run.
	BestOf int `json:"best_of,omitempty"`
}

// udpTxBlast measures TX datapath capacity on one engine: a sender
// blasts bursts of DefaultBurst 32-byte frames at a receiver as fast
// as SendBurst returns, and the sender's wall clock gives packets/sec.
// Receiver-side ring overflow is expected and harmless (NIC RQ
// semantics); only the send half is timed.
func udpTxBlast(newTr func(transport.Addr, string) (*transport.UDP, error), opts Options) UDPTxBlastResult {
	opts = opts.norm()
	rx, err := newTr(transport.Addr{Node: 1, Port: 0}, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer rx.Close()
	tx, err := newTr(transport.Addr{Node: 2, Port: 0}, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer tx.Close()
	if err := tx.AddPeer(rx.LocalAddr(), rx.BoundAddr().String()); err != nil {
		panic(err)
	}

	const burst = transport.DefaultBurst
	bursts := int(4_000 * opts.Scale)
	if bursts < 500 {
		bursts = 500
	}
	payload := make([]byte, 32)
	frames := make([]transport.Frame, burst)
	for i := range frames {
		frames[i] = transport.Frame{Data: payload, Addr: rx.LocalAddr()}
	}
	for i := 0; i < 50; i++ { // warm the engine arrays and peer path
		tx.SendBurst(frames)
	}
	sys0 := tx.Syscalls.Load()
	seg0 := tx.GsoSegments.Load()
	t0 := time.Now()
	for i := 0; i < bursts; i++ {
		tx.SendBurst(frames)
	}
	wall := time.Since(t0)
	sys := tx.Syscalls.Load() - sys0
	pkts := uint64(bursts) * burst
	res := UDPTxBlastResult{
		Engine:      tx.Engine(),
		WallSec:     wall.Seconds(),
		Packets:     pkts,
		GsoSegments: tx.GsoSegments.Load() - seg0,
	}
	if wall > 0 {
		res.Mpps = float64(pkts) / wall.Seconds() / 1e6
	}
	res.SyscallsPerOp = float64(sys) / float64(pkts)
	if sys > 0 && res.GsoSegments > 0 {
		res.SegsPerSyscall = float64(res.GsoSegments) / float64(sys)
	}
	return res
}
