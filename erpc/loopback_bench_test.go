package erpc_test

import (
	"runtime"
	"testing"

	"repro/erpc"
)

// BenchmarkLoopbackRPC measures the full small-RPC round trip over UDP
// loopback with manually driven event loops — the real-transport hot
// path the burst datapath optimizes. One sub-benchmark per available
// UDP syscall engine (gso vs per-packet) exposes the batched-syscall
// win directly. Run with -benchmem to see the zero-alloc property.
func BenchmarkLoopbackRPC(b *testing.B) {
	for _, engine := range udpEngines() {
		b.Run(engine, func(b *testing.B) { runLoopbackRPC(b, engine) })
	}
}

func runLoopbackRPC(b *testing.B, engine string) {
	nx := erpc.NewNexus()
	nx.Register(1, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})
	srvTr, err := newUDPTransportEngine(engine, erpc.Addr{Node: 1, Port: 0}, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srvTr.Close()
	cliTr, err := newUDPTransportEngine(engine, erpc.Addr{Node: 2, Port: 0}, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer cliTr.Close()
	if err := srvTr.AddPeer(cliTr.LocalAddr(), cliTr.BoundAddr().String()); err != nil {
		b.Fatal(err)
	}
	if err := cliTr.AddPeer(srvTr.LocalAddr(), srvTr.BoundAddr().String()); err != nil {
		b.Fatal(err)
	}
	srv := erpc.NewRpc(nx, erpc.Config{Transport: srvTr, Clock: erpc.NewWallClock()})
	cli := erpc.NewRpc(nx, erpc.Config{Transport: cliTr, Clock: erpc.NewWallClock()})
	sess, err := cli.CreateSession(srv.LocalAddr())
	if err != nil {
		b.Fatal(err)
	}
	req, resp := cli.Alloc(32), cli.Alloc(32)
	var done bool
	cont := func(error) { done = true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		cli.EnqueueRequest(sess, 1, req, resp, cont)
		for !done {
			prog := cli.RunEventLoopOnce()
			prog = srv.RunEventLoopOnce() || prog
			if !prog {
				// Spin, don't park: the packet is in flight to the
				// peer's socket, and a park would time the wake-up
				// instead of the round trip.
				runtime.Gosched()
			}
		}
	}
}
