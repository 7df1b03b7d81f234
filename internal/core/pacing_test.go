package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// TestPacedRequestHonoursRate sends one 64 KiB request over UDP
// loopback through the rate limiter (bypass disabled) at a link rate
// slow enough that one credit window of packets spans several wheel
// horizons. Timely never paces above the link rate, so the last packet
// cannot leave before (numPkts-1) MTU intervals have passed: a wheel
// that released out-of-horizon packets early into its last slot sent
// the window in bursts and delivered the request in well under half
// that time. Every packet goes through the wheel, which is empty once
// the RPC completes.
func TestPacedRequestHonoursRate(t *testing.T) {
	const (
		linkGbps = 0.025 // one 1472 B frame per ~471 µs
		reqSize  = 64 << 10
	)
	var start, arrived atomic.Int64
	nx := NewNexus()
	nx.Register(1, Handler{Fn: func(ctx *ReqContext) {
		arrived.Store(time.Now().UnixNano())
		ctx.AllocResponse(8)
		ctx.EnqueueResponse()
	}})
	srvTrs, cliTrs := udpPair(t, 1, 1)
	srv := NewRpc(nx, Config{Transport: srvTrs[0], Clock: sim.NewWallClock()})
	cli := NewRpc(nx, Config{
		Transport:    cliTrs[0],
		Clock:        sim.NewWallClock(),
		LinkRateGbps: linkGbps,
		Opts:         Opts{DisableRateLimiterBypass: true},
	})
	sess, err := cli.CreateSession(srvTrs[0].LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	stopSrv, stopCli := make(chan struct{}), make(chan struct{})
	srvDone, cliDone := make(chan struct{}), make(chan struct{})
	go func() { srv.RunEventLoop(stopSrv); close(srvDone) }()
	go func() { cli.RunEventLoop(stopCli); close(cliDone) }()
	stopLoops := sync.OnceFunc(func() {
		close(stopCli)
		<-cliDone
		close(stopSrv)
		<-srvDone
	})
	t.Cleanup(stopLoops)

	result := make(chan error, 1)
	cli.Post(func() {
		req, resp := cli.Alloc(reqSize), cli.Alloc(64)
		start.Store(time.Now().UnixNano())
		cli.EnqueueRequest(sess, 1, req, resp, func(err error) {
			cli.Free(req)
			cli.Free(resp)
			result <- err
		})
	})
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("rpc: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("timed out")
	}
	stopLoops() // the counters and the wheel are read below, off the loop goroutine

	mtu := cliTrs[0].MTU()
	numPkts := wire.NumPkts(reqSize, cli.DataPerPkt())
	minSpan := time.Duration(float64((numPkts-1)*mtu*8) / (linkGbps * 1e9) * 1e9)
	if got := time.Duration(arrived.Load() - start.Load()); got < minSpan {
		t.Errorf("%d-packet request reached the server after %v; at %g Gbit/s it needs at least %v",
			numPkts, got, linkGbps, minSpan)
	}
	if cli.Stats.PacedTx < uint64(numPkts) {
		t.Errorf("PacedTx = %d, want at least %d (every request packet)", cli.Stats.PacedTx, numPkts)
	}
	if n := cli.wheel.Len(); n != 0 {
		t.Errorf("wheel holds %d entries after the RPC completed", n)
	}
}
