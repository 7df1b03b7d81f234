package workload

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

func testPair(t *testing.T) (*sim.Scheduler, *core.Rpc, *core.Rpc) {
	t.Helper()
	sched := sim.NewScheduler(1)
	fab, err := simnet.New(sched, simnet.Config{Profile: simnet.CX4(), Topology: simnet.SingleSwitch(2)})
	if err != nil {
		t.Fatal(err)
	}
	nx := core.NewNexus()
	nx.Register(1, core.Handler{Fn: func(ctx *core.ReqContext) {
		// Echo up to 32 bytes: incast requests are large but expect a
		// small acknowledgement, like the §6.4 workload.
		n := len(ctx.Req)
		if n > 32 {
			n = 32
		}
		out := ctx.AllocResponse(n)
		copy(out, ctx.Req[:n])
		ctx.EnqueueResponse()
	}})
	mk := func(node int) *core.Rpc {
		return core.NewRpc(nx, core.Config{
			Transport: fab.AttachEndpoint(node), Clock: sched, Sched: sched, LinkRateGbps: 25,
		})
	}
	return sched, mk(0), mk(1)
}

func TestSymmetricKeepsWindowAndCompletes(t *testing.T) {
	sched, a, b := testPair(t)
	sess, err := a.CreateSession(b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.NewRecorder(1 << 16)
	w := &Symmetric{
		Rpc: a, Sessions: []*core.Session{sess}, ReqType: 1,
		B: 3, Window: 12, ReqSize: 32, RespSize: 32,
		Rng: rand.New(rand.NewSource(1)), Sched: sched,
		Latency: rec,
	}
	w.Start()
	sched.RunUntil(2 * sim.Millisecond)
	w.Stop()
	sched.Run()
	if w.Completed == 0 {
		t.Fatal("no completions")
	}
	if w.Errors != 0 {
		t.Fatalf("errors = %d", w.Errors)
	}
	if w.inflight != 0 {
		t.Fatalf("inflight = %d after drain", w.inflight)
	}
	if rec.Count() == 0 || rec.Median() <= 0 {
		t.Fatal("latency not recorded")
	}
}

func TestSymmetricWarmupExcluded(t *testing.T) {
	sched, a, b := testPair(t)
	sess, _ := a.CreateSession(b.LocalAddr())
	w := &Symmetric{
		Rpc: a, Sessions: []*core.Session{sess}, ReqType: 1,
		B: 1, Window: 1, ReqSize: 8, RespSize: 8,
		Rng: rand.New(rand.NewSource(1)), Sched: sched,
		MeasureAfter: sim.Millisecond,
	}
	w.Start()
	sched.RunUntil(500 * sim.Microsecond)
	if w.Completed != 0 {
		t.Fatalf("completions counted in warmup: %d", w.Completed)
	}
	sched.RunUntil(3 * sim.Millisecond)
	if w.Completed == 0 {
		t.Fatal("no completions after warmup")
	}
}

func TestPingPongOneOutstanding(t *testing.T) {
	sched, a, b := testPair(t)
	sess, _ := a.CreateSession(b.LocalAddr())
	rec := stats.NewRecorder(1 << 12)
	pp := &PingPong{Rpc: a, Session: sess, ReqType: 1, ReqSize: 32, RespSize: 32, Sched: sched, Latency: rec}
	pp.Start()
	sched.RunUntil(sim.Millisecond)
	pp.Stop()
	sched.Run()
	if pp.Completed == 0 || pp.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", pp.Completed, pp.Errors)
	}
	// One outstanding: completions × RTT ≈ elapsed.
	if rec.Median() <= 2 || rec.Median() > 10 {
		t.Fatalf("median latency = %v µs, want ~3-4", rec.Median())
	}
}

func TestIncastCountsBytes(t *testing.T) {
	sched, a, b := testPair(t)
	sess, _ := a.CreateSession(b.LocalAddr())
	in := &Incast{Rpc: a, Session: sess, ReqType: 1, ReqSize: 100_000, Sched: sched}
	in.Start()
	sched.RunUntil(5 * sim.Millisecond)
	in.Stop()
	sched.Run()
	if in.Bytes == 0 || in.Bytes%100_000 != 0 {
		t.Fatalf("bytes = %d, want positive multiple of request size", in.Bytes)
	}
	if in.Errors != 0 {
		t.Fatalf("errors = %d", in.Errors)
	}
}

func TestUniformKeys(t *testing.T) {
	keys := UniformKeys(rand.New(rand.NewSource(1)), 100, 16)
	if len(keys) != 100 {
		t.Fatalf("len = %d", len(keys))
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if len(k) != 16 {
			t.Fatalf("key size = %d", len(k))
		}
		seen[string(k)] = true
	}
	if len(seen) < 99 {
		t.Fatalf("keys not unique enough: %d distinct", len(seen))
	}
}
