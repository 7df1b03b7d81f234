package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/rdmasim"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("fig5", Fig5)
	register("fig6", Fig6)
	register("tab4", Table4)
	register("tab5", Table5)
	register("sec65", Sec65)
}

// Fig5 reproduces Figure 5 (§6.3): RPC latency percentiles on the
// 100-node CX4 cluster as threads per node increase; each thread runs
// the B=3 symmetric workload against all 100T−1 remote threads, so a
// node hosts up to 19980 sessions.
func Fig5(opts Options) *Report {
	opts = opts.norm()
	rep := &Report{ID: "fig5", Title: "Figure 5: latency on 100 CX4 nodes vs threads/node (µs)"}
	nodesPerToR := 20
	threads := []int{1, 2, 5, 10}
	if opts.Scale < 1 {
		nodesPerToR = 4 // 20-node cluster for quick runs
		threads = []int{1, 2}
	}
	paper := map[int]string{
		1:  "p50=12.7",
		2:  "p99≈40",
		5:  "p99.9≈180",
		10: "p50≈25 p99.99<700",
	}
	for _, T := range threads {
		med, p99, p999, p9999, mrpsPerNode, retrans := fig5Run(nodesPerToR, T, opts)
		rep.Add(
			fmt.Sprintf("T=%-2d (%d sessions/node)", T, T*(5*nodesPerToR*T-1)*2),
			paper[T],
			fmt.Sprintf("p50=%.1f p99=%.0f p99.9=%.0f p99.99=%.0f (%.1f Mrps/node, %d retx)",
				med, p99, p999, p9999, mrpsPerNode, retrans),
		)
	}
	rep.Notes = "paper: 12.3 Mrps/node at T=10; 99.99th percentile stays below 700 µs; ~1700 retx/s/node max."
	return rep
}

func fig5Run(nodesPerToR, T int, opts Options) (med, p99, p999, p9999, mrpsPerNode float64, retrans uint64) {
	nodes := 5 * nodesPerToR
	topo := simnet.CX4Topology(nodesPerToR)
	// The paper's CloudLab uplinks were shared with other tenants; the
	// effective oversubscription for its 100 nodes was ~2:1 (§3.3,
	// §6.3 "somewhat smaller because of oversubscription"). Three of
	// the five uplinks' worth of capacity models that contention.
	topo.NumSpines = 3
	c := BuildCluster(ClusterSpec{
		Prof:           simnet.CX4(),
		Topo:           topo,
		ThreadsPerNode: T,
		Nexus:          EchoNexus(32),
		Seed:           opts.Seed,
		TimelyMinRTT:   6 * sim.Microsecond,
		NetMut:         func(nc *simnet.Config) { nc.Jitter = 2 * sim.Microsecond },
		CfgMut: func(_, _ int, cfg *core.Config) {
			cfg.RQSize = 1 << 21 // Appendix A: multi-packet RQs make huge RQs cheap
		},
	})
	sess := c.ConnectAllToAll()
	rec := stats.NewRecorder(1 << 20)
	warm := 300 * sim.Microsecond
	dur := sim.Time(float64(2*sim.Millisecond) * opts.Scale)
	loads := make([]*workload.Symmetric, len(c.Rpcs))
	for i, r := range c.Rpcs {
		loads[i] = &workload.Symmetric{
			Rpc: r, Sessions: sess[i], ReqType: 1,
			B: 3, Window: 60, ReqSize: 32, RespSize: 32,
			Rng:   rand.New(rand.NewSource(opts.Seed + int64(i))),
			Sched: c.Sched, MeasureAfter: warm, Latency: rec,
		}
		loads[i].Start()
	}
	c.Sched.RunUntil(warm + dur)
	var total uint64
	for i := range loads {
		total += loads[i].Completed
		retrans += c.Rpcs[i].Stats.Retransmits
	}
	mrpsPerNode = float64(total) / float64(nodes) / (float64(dur) / 1e9) / 1e6
	return rec.Median(), rec.Percentile(99), rec.Percentile(99.9), rec.Percentile(99.99), mrpsPerNode, retrans
}

// Fig6 reproduces Figure 6 (§6.4): large-transfer goodput over
// 100 Gbps InfiniBand with one core, vs RDMA writes, for request sizes
// 512 B – 8 MB.
func Fig6(opts Options) *Report {
	opts = opts.norm()
	rep := &Report{ID: "fig6", Title: "Figure 6: large-RPC goodput, 100 Gbps InfiniBand (Gbps)"}
	paper := map[int]string{
		512:       "~2",
		8 << 10:   "~25",
		32 << 10:  "~50 (≥70% of RDMA)",
		512 << 10: "~70",
		8 << 20:   "75 (RDMA write ~97)",
	}
	sizes := []int{512, 8 << 10, 32 << 10, 512 << 10, 8 << 20}
	if opts.Scale < 1 {
		sizes = []int{8 << 10, 512 << 10, 8 << 20}
	}
	nic := rdmasim.New(simnet.CX5IB100())
	for _, sz := range sizes {
		g := fig6Goodput(sz, opts, nil)
		w := nic.WriteGoodput(sz)
		rep.Add(sizeLabel(sz), paper[sz], fmt.Sprintf("eRPC %.1f / RDMA write %.1f (%.0f%%)", g, w, 100*g/w))
	}
	// §6.4: commenting out the server-side RX memcpy lifts eRPC to
	// ~92 Gbps, showing copies dominate the remaining gap.
	nocopy := fig6Goodput(8<<20, opts, func(cfg *core.Config) {
		cm := core.DefaultCostModel()
		cm.MemcpyPerByte = 0
		cfg.Cost = cm
	})
	rep.Add("8 MB, RX memcpy removed", "92", fmt.Sprintf("%.1f", nocopy))
	rep.Notes = "one client core sending R-byte requests, 32 B responses, 32 credits/session."
	return rep
}

func sizeLabel(sz int) string {
	switch {
	case sz >= 1<<20:
		return fmt.Sprintf("%d MB", sz>>20)
	case sz >= 1<<10:
		return fmt.Sprintf("%d kB", sz>>10)
	}
	return fmt.Sprintf("%d B", sz)
}

func fig6Goodput(reqSize int, opts Options, mut func(*core.Config)) float64 {
	c := BuildCluster(ClusterSpec{
		Prof:  simnet.CX5IB100(),
		Topo:  simnet.SingleSwitch(2),
		Nexus: EchoNexus(32),
		Seed:  opts.Seed,
		CfgMut: func(_, _ int, cfg *core.Config) {
			cfg.LinkRateGbps = 100
			if mut != nil {
				mut(cfg)
			}
		},
	})
	cli, srv := c.Rpc(0, 0), c.Rpc(1, 0)
	sess, err := cli.CreateSession(srv.LocalAddr())
	if err != nil {
		panic(err)
	}
	warm := 200 * sim.Microsecond
	dur := sim.Time(float64(8*sim.Millisecond) * opts.Scale)
	if reqSize >= 1<<20 {
		dur = sim.Time(float64(30*sim.Millisecond) * opts.Scale)
	}
	in := &workload.Incast{
		Rpc: cli, Session: sess, ReqType: 1, ReqSize: reqSize,
		Sched: c.Sched, MeasureAfter: warm,
	}
	in.Start()
	c.Sched.RunUntil(warm + dur)
	return stats.Gbps(in.Bytes, int64(dur))
}

// Table4 reproduces Table 4 (§6.4): 8 MB request throughput under
// injected uniform packet loss, 5 ms RTO.
func Table4(opts Options) *Report {
	opts = opts.norm()
	rep := &Report{ID: "tab4", Title: "Table 4: 8 MB request throughput vs injected loss rate (Gbps)"}
	paper := map[float64]string{1e-7: "73", 1e-6: "71", 1e-5: "57", 1e-4: "18", 1e-3: "2.5"}
	rates := []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3}
	if opts.Scale < 1 {
		rates = []float64{1e-6, 1e-4}
	}
	for _, lr := range rates {
		g := table4Goodput(lr, opts)
		rep.Add(fmt.Sprintf("loss %.0e", lr), paper[lr], fmt.Sprintf("%.1f", g))
	}
	rep.Notes = "usable to ~1e-4 loss, then go-back-N retransmission collapses throughput (as in the paper)."
	return rep
}

func table4Goodput(lossRate float64, opts Options) float64 {
	c := BuildCluster(ClusterSpec{
		Prof:  simnet.CX5IB100(),
		Topo:  simnet.SingleSwitch(2),
		Nexus: EchoNexus(32),
		Seed:  opts.Seed,
		NetMut: func(nc *simnet.Config) {
			nc.LossRate = lossRate
		},
		CfgMut: func(_, _ int, cfg *core.Config) { cfg.LinkRateGbps = 100 },
	})
	cli, srv := c.Rpc(0, 0), c.Rpc(1, 0)
	sess, _ := cli.CreateSession(srv.LocalAddr())
	warm := 200 * sim.Microsecond
	// Longer windows at higher loss so several RTO events average out.
	dur := sim.Time(float64(60*sim.Millisecond) * opts.Scale)
	if lossRate >= 1e-4 {
		dur = sim.Time(float64(400*sim.Millisecond) * opts.Scale)
	}
	in := &workload.Incast{Rpc: cli, Session: sess, ReqType: 1, ReqSize: 8 << 20, Sched: c.Sched, MeasureAfter: warm}
	in.Start()
	c.Sched.RunUntil(warm + dur)
	return stats.Gbps(in.Bytes, int64(dur))
}

// Table5 reproduces Table 5 (§6.5): incast total bandwidth and
// per-packet RTT statistics with and without congestion control.
func Table5(opts Options) *Report {
	opts = opts.norm()
	rep := &Report{ID: "tab5", Title: "Table 5: incast on CX4 — bandwidth and switch queueing (RTT at clients)"}
	paper := map[string]string{
		"20":        "21.8 Gbps, RTT p50=39µs p99=67µs",
		"20 no-cc":  "23.1 Gbps, RTT p50=202µs p99=204µs",
		"50":        "18.4 Gbps, RTT p50=34µs p99=174µs",
		"50 no-cc":  "23.0 Gbps, RTT p50=524µs p99=524µs",
		"100":       "22.8 Gbps, RTT p50=349µs p99=969µs",
		"100 no-cc": "23.0 Gbps, RTT p50=1056µs p99=1060µs",
	}
	degrees := []int{20, 50, 100}
	if opts.Scale < 1 {
		degrees = []int{20}
	}
	for _, n := range degrees {
		for _, cc := range []bool{true, false} {
			bw, p50, p99 := incastRun(n, cc, opts)
			label := fmt.Sprintf("%d", n)
			if !cc {
				label += " no-cc"
			}
			rep.Add(label+"-way", paper[label],
				fmt.Sprintf("%.1f Gbps, RTT p50=%.0fµs p99=%.0fµs", bw, p50, p99))
		}
	}
	rep.Notes = "cc cuts median queueing >3x up to 50-way incast; Timely-like control degrades at 100-way (paper §6.5)."
	return rep
}

// incastJitter models per-packet RTT noise under an n-way incast:
// ~0.4 µs of queue fluctuation per interleaved flow, saturating at
// 24 µs.
func incastJitter(n int) sim.Time {
	j := sim.Time(n) * 400 * sim.Nanosecond
	if j > 24*sim.Microsecond {
		j = 24 * sim.Microsecond
	}
	return j
}

// incastRun drives an n-way incast of 8 MB requests into one victim
// and returns (total bandwidth Gbps, RTT p50 µs, RTT p99 µs).
func incastRun(n int, cc bool, opts Options) (float64, float64, float64) {
	c := BuildCluster(ClusterSpec{
		Prof:         simnet.CX4(),
		Topo:         simnet.SingleSwitch(n + 1),
		Nexus:        EchoNexus(32),
		Seed:         opts.Seed,
		TimelyMinRTT: 6 * sim.Microsecond,
		// Timely's gradient detector needs the RTT noise of a loaded
		// network. The noise amplitude grows with the number of
		// interleaved flows (each flow's packets see the burst
		// structure of all others) but saturates; the cap is what
		// makes Timely-like control break down at 100-way incast
		// (Zhu et al., cited in paper §6.5).
		NetMut: func(nc *simnet.Config) { nc.Jitter = incastJitter(n) },
		CfgMut: func(_, _ int, cfg *core.Config) {
			if !cc {
				cfg.Opts.DisableCC = true
			}
		},
	})
	victim := c.Rpc(n, 0)
	rtts := stats.NewRecorder(1 << 18)
	warm := sim.Time(float64(20*sim.Millisecond) * opts.Scale)
	dur := sim.Time(float64(20*sim.Millisecond) * opts.Scale)
	flows := make([]*workload.Incast, n)
	for i := 0; i < n; i++ {
		cli := c.Rpc(i, 0)
		cli.RTTHook = func(rtt sim.Time) {
			if c.Sched.Now() >= warm {
				rtts.Add(float64(rtt) / 1000)
			}
		}
		sess, err := cli.CreateSession(victim.LocalAddr())
		if err != nil {
			panic(err)
		}
		flows[i] = &workload.Incast{Rpc: cli, Session: sess, ReqType: 1, ReqSize: 8 << 20, Sched: c.Sched, MeasureAfter: warm}
		flows[i].Start()
	}
	before := uint64(0)
	c.Sched.At(warm, func() { before = c.Fab.Stats.BytesDelivered })
	c.Sched.RunUntil(warm + dur)
	delivered := c.Fab.Stats.BytesDelivered - before
	return stats.Gbps(delivered, int64(dur)), rtts.Median(), rtts.Percentile(99)
}

// Sec65 reproduces the §6.5 "incast with background traffic"
// experiment: a 100-way incast while latency-sensitive 64 kB
// request/response flows run between the other nodes; the paper
// reports ≈274 µs 99th-percentile latency for those flows,
// comparable to Timely on a lossless RDMA fabric.
func Sec65(opts Options) *Report {
	opts = opts.norm()
	rep := &Report{ID: "sec65", Title: "§6.5: 64 kB latency-sensitive RPCs in a 100-way incast"}
	n := 100
	if opts.Scale < 1 {
		n = 20
	}
	c := BuildCluster(ClusterSpec{
		Prof:         simnet.CX4(),
		Topo:         simnet.SingleSwitch(n + 1),
		Nexus:        EchoNexus(64 << 10),
		Seed:         opts.Seed,
		TimelyMinRTT: 6 * sim.Microsecond,
		NetMut:       func(nc *simnet.Config) { nc.Jitter = incastJitter(n) },
	})
	victim := c.Rpc(n, 0)
	warm := sim.Time(float64(20*sim.Millisecond) * opts.Scale)
	dur := sim.Time(float64(20*sim.Millisecond) * opts.Scale)
	for i := 0; i < n; i++ {
		cli := c.Rpc(i, 0)
		sess, _ := cli.CreateSession(victim.LocalAddr())
		in := &workload.Incast{Rpc: cli, Session: sess, ReqType: 1, ReqSize: 8 << 20, Sched: c.Sched, MeasureAfter: warm}
		in.Start()
	}
	// Latency-sensitive pairs among non-victim nodes: i ↔ i+1.
	lat := stats.NewRecorder(1 << 16)
	for i := 0; i+1 < n; i += 2 {
		a, b := c.Rpc(i, 0), c.Rpc(i+1, 0)
		sess, _ := a.CreateSession(b.LocalAddr())
		pp := &workload.PingPong{
			Rpc: a, Session: sess, ReqType: 1, ReqSize: 64 << 10, RespSize: 64 << 10,
			Sched: c.Sched, Latency: lat, MeasureAfter: warm,
		}
		pp.Start()
	}
	c.Sched.RunUntil(warm + dur)
	rep.Add(fmt.Sprintf("%d-way incast, 64 kB flows", n),
		"p99 ≈ 274 µs (Timely on lossless RDMA: 200-300 µs at 40-way)",
		fmt.Sprintf("p50=%.0fµs p99=%.0fµs (n=%d)", lat.Median(), lat.Percentile(99), lat.Count()))
	rep.Notes = "software-only networking on lossy Ethernet keeps tail latency comparable to lossless RDMA fabrics."
	return rep
}
