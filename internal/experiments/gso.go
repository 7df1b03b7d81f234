package experiments

import (
	"repro/internal/transport"
)

// The gso benchmark measures the segmentation-offload UDP datapath:
// the windowed small-RPC loopback workload run over the per-packet
// engine (one sendto/recvfrom kernel crossing and one kernel stack
// traversal per datagram — the "before") and over the gso engine (one
// sendmmsg/recvmmsg per burst, plus UDP_SEGMENT supersegments on TX
// and UDP_GRO coalescing on RX, so a same-peer run of a burst
// traverses the stack once — the "after"). Zero-copy rides along end
// to end: on TX both engines alias packet-0 frames — the client's
// request AND the server's response — straight from the msgbuf
// (zero_copy_tx_per_op, 2.0 when every echo round trip avoids both
// copies), and on RX the gso engine splits each GRO supersegment into
// frames that alias the refcounted receive buffer instead of copying
// every segment out (gro_aliased_segs, with gro_copied_segs counting
// the budget-exhausted fallback). cmd/erpc-bench -gso records the
// sweep in BENCH_gso.json.
//
// Syscalls/op is the controlled measure, and it captures the GRO half
// directly: a supersegment crossing loopback is delivered coalesced,
// so the receiver drains a whole TX burst in one recvmmsg where the
// per-packet reader pays one recvfrom per datagram. The coalescing
// axis needs multi-frame bursts to exist: at window 1 every burst is
// one frame, and at window 2 completion-driven re-issue desynchronizes
// the two in-flight requests into mostly-single-frame bursts. The
// sweep therefore starts at window 4, the shallowest point where
// same-peer runs form reliably.

// GsoRuntimeSupported mirrors the transport gate for the bench
// harness: whether the "after" engine exists in this binary AND this
// kernel accepts UDP_SEGMENT/UDP_GRO.
func GsoRuntimeSupported() bool {
	return transport.GsoSupported && transport.UDPGsoSupported()
}

// GsoWindows is the in-flight-request sweep. Windows 1-2 are omitted
// by design: their bursts are mostly single frames and nothing
// coalesces (see the comment above); from window 4 up every point
// exercises real supersegments.
// Window 16 exceeds the per-session slot limit (core.DefaultNumSlots =
// 8), so it also drives the FIFO backlog path under offload.
var GsoWindows = []int{4, 8, 16}

// GsoSweep runs the full before/after sweep: the per-packet engine
// across every window, then the gso engine (when the build and kernel
// support it; gso is nil otherwise). Each point is measured several
// times and the best run kept: loopback RPC wall time on small hosts
// is bimodal (the wake/park pipeline either stays hot or stutters at
// timer granularity, for either engine), and best-of-N estimates the
// no-interference capacity, while syscalls/op, the gso/gro counters
// and zero-copy accounting are stable across modes. Rows print as they
// are measured.
func GsoSweep(opts Options, printf func(format string, a ...any)) (perPkt, gso []UDPSyscallResult) {
	if printf == nil {
		printf = func(string, ...any) {}
	}
	const reps = 5
	row := func(newTr func(transport.Addr, string) (*transport.UDP, error), w int) UDPSyscallResult {
		best := udpEchoMeasure(newTr, w, opts)
		for i := 1; i < reps; i++ {
			if m := udpEchoMeasure(newTr, w, opts); m.Krps > best.Krps {
				best = m
			}
		}
		printf("engine=%-10s window=%-2d  %8.1f krps  %6.2f syscalls/op  %6d gso segs  %5d gro batches  %6d aliased segs  %.2f zc-tx/op (best of %d)\n",
			best.Engine, best.Window, best.Krps, best.SyscallsPerOp,
			best.GsoSegments, best.GroBatches, best.GroAliasedSegs,
			best.ZeroCopyTxPerOp, reps)
		best.BestOf = reps
		return best
	}
	for _, w := range GsoWindows {
		perPkt = append(perPkt, row(transport.NewUDPPerPacket, w))
	}
	if !GsoRuntimeSupported() {
		return perPkt, nil
	}
	for _, w := range GsoWindows {
		gso = append(gso, row(transport.NewUDP, w))
	}
	return perPkt, gso
}

// GsoTxBlastSweep measures TX blast capacity on the per-packet engine
// and the gso engine (gso nil when unsupported), best of 3 runs each.
// The per-packet engine pays one syscall per frame, the gso engine one
// per 16-frame burst; the gso row additionally reports
// segments/syscall — how many datagrams each kernel crossing (and, on
// loopback, each stack traversal) carried as one supersegment.
func GsoTxBlastSweep(opts Options, printf func(format string, a ...any)) (perPkt, gso *UDPTxBlastResult) {
	if printf == nil {
		printf = func(string, ...any) {}
	}
	const reps = 3
	row := func(newTr func(transport.Addr, string) (*transport.UDP, error)) *UDPTxBlastResult {
		best := udpTxBlast(newTr, opts)
		for i := 1; i < reps; i++ {
			if m := udpTxBlast(newTr, opts); m.Mpps > best.Mpps {
				best = m
			}
		}
		best.BestOf = reps
		printf("engine=%-10s tx blast   %8.2f Mpps  %6.2f syscalls/pkt  %6.1f segments/syscall (best of %d)\n",
			best.Engine, best.Mpps, best.SyscallsPerOp, best.SegsPerSyscall, reps)
		return &best
	}
	perPkt = row(transport.NewUDPPerPacket)
	if GsoRuntimeSupported() {
		gso = row(transport.NewUDP)
	}
	return perPkt, gso
}
