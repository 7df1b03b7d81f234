// Command rpcbench is the repository's benchmark: it deploys the real
// UDP eRPC stack — the default engine from erpc.ListenUDP, a default
// Config, one Server endpoint (one worker) and one Client endpoint in
// this process — drives one closed-loop workload against it, checks
// every response, and prints its metrics by name with unit and sample
// count. The last line of standard output is a JSON result.
//
//	rpcbench --workload bulk_write --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the run sets the stack up several times (setup_s is
// the median) and measures the end-to-end metrics on the raw sockets.
// With --trace 1 it measures half the time untraced and half through
// the tracing wrappers, and prints the per-layer metrics and the
// tracing overhead (traced minus untraced).
//
// The exit status is non-zero on any correctness violation: an RPC
// error, wrong response bytes, an id executed twice or completed
// without executing, an RPC left unresolved, or an unbalanced msgbuf
// allocator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	spansDir string // where the traced run writes its span log; "" for none
}

// e2eReported are the end-to-end metrics of the JSON result: the ones
// steady enough from run to run, on the workloads BENCHMARK.json lists,
// to gate a change on. The report also prints p99_us and p999_us, which
// follow rare stalls (bulk_write's p99 ranged 4.4 to 9.2 ms over runs
// of the same code); cpu_us_per_rpc, which follows the host's load
// (bulk_write ranged 277 to 405 us); and allocs_per_rpc and fail_ratio,
// which read 0 (fail_ratio is the result's failed/attempted).
var e2eReported = []string{"krps", "goodput_gbps", "p50_us", "mem_mb", "setup_s"}

// setups is how many times an untraced run sets the stack up; setup_s
// is their median. The last measuredStacks of them are measured in
// turn, each for an equal share of --seconds, and their windows pooled:
// a stack can settle into a throughput state that holds for its whole
// life, and more than one draw per run keeps one such stack from
// setting the run's medians.
const (
	setups         = 41
	measuredStacks = 2
)

type metric struct {
	name  string
	unit  string
	value float64
	n     uint64 // samples behind the value
	note  string // how it was computed, for the report
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "ping", "workload: ping, burst, bulk_write or bulk_read")
	flag.Int64Var(&o.seed, "seed", 1, "seed for request ids and payload bytes")
	flag.Float64Var(&seconds, "seconds", 10, "measured time per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics through the tracing wrappers")
	flag.StringVar(&o.spansDir, "spans-dir", "", "directory for the traced run's span log (none if empty)")
	flag.Parse()
	o.measure = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "rpcbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run, printing its report to out.
func run(o options, out io.Writer) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.measure <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	fmt.Fprintf(out, "# rpcbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, o.seed, o.measure.Seconds(), o.trace)
	if o.trace {
		return runTraced(w, o, out)
	}
	return runUntraced(w, o, out)
}

func warmup(measure time.Duration) time.Duration {
	return min(time.Second, max(200*time.Millisecond, measure/10))
}

// windowLen is the nominal length of a measurement window. The
// end-to-end metrics are medians over a phase's windows: the stack
// switches between a fast and a slow mode that each last seconds
// (ping's throughput differs about 30x between them), so a whole-phase
// mean depends on how many mode switches a run happened to catch. The
// report also prints the whole-phase figures and the lowest and
// highest window, so the switching stays visible.
const windowLen = time.Second

// phase is the measured part of one stack's life, or of several pooled,
// cut into windows.
type phase struct {
	dur         time.Duration
	cpuNs       int64
	mallocs     uint64
	numGC       uint32
	pauseNs     uint64
	wins        []win
	lat         hist // all windows' latencies
	reqB, respB int
	checks      checks
	counters    counters
}

// win is one measurement window.
type win struct {
	dur   time.Duration
	cpuNs int64
	lat   *hist
}

// measure warms st up, measures it for d, then finishes it.
func measure(st *stack, d time.Duration) *phase {
	time.Sleep(warmup(d))
	g := st.gen
	n := max(1, int(math.Round(float64(d)/float64(windowLen))))
	wl := d / time.Duration(n)
	g.windows, g.windowNs = make([]hist, n), int64(wl)
	before := snapshot()
	start := nanotime()
	g.measureStart.Store(start)
	p := &phase{}
	lastT, lastCPU := start, before.cpuNs
	for i := 1; i <= n; i++ {
		time.Sleep(time.Duration(start + int64(i)*int64(wl) - nanotime()))
		t, cpu := nanotime(), cpuNs()
		p.wins = append(p.wins, win{dur: time.Duration(t - lastT), cpuNs: cpu - lastCPU, lat: &g.windows[i-1]})
		lastT, lastCPU = t, cpu
	}
	g.measureStart.Store(0)
	after := snapshot()
	p.dur = after.at.Sub(before.at)
	p.cpuNs = after.cpuNs - before.cpuNs
	p.mallocs = after.mallocs - before.mallocs
	p.numGC = after.numGC - before.numGC
	p.pauseNs = after.pauseNs - before.pauseNs
	p.reqB, p.respB = st.w.reqSize(), st.w.respSize()
	p.checks, p.counters = st.finish()
	for _, w := range p.wins {
		p.lat.merge(w.lat)
	}
	return p
}

// pool adds o's windows and totals to p.
func (p *phase) pool(o *phase) {
	p.dur += o.dur
	p.cpuNs += o.cpuNs
	p.mallocs += o.mallocs
	p.numGC += o.numGC
	p.pauseNs += o.pauseNs
	p.wins = append(p.wins, o.wins...)
	p.lat.merge(&o.lat)
	p.reqB, p.respB = o.reqB, o.respB
}

func perRPC(x float64, rpcs uint64) float64 {
	if rpcs == 0 {
		return 0
	}
	return x / float64(rpcs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowed is a per-window statistic: its median over the windows is
// the metric.
func (p *phase) windowed(f func(w *win) float64) (med, lo, hi float64) {
	xs := make([]float64, len(p.wins))
	for i := range p.wins {
		xs[i] = f(&p.wins[i])
	}
	return median(xs), slices.Min(xs), slices.Max(xs)
}

func (w *win) krps() float64 { return float64(w.lat.n) / w.dur.Seconds() / 1e3 }

// endToEnd computes the end-to-end metrics of an untraced phase, each
// the median over its windows, with the whole-phase figure alongside.
func (p *phase) endToEnd() []metric {
	secs := p.dur.Seconds()
	rpcs := p.lat.n
	nw := uint64(len(p.wins))
	bytesPerRPC := float64(p.reqB + p.respB)
	var ms []metric
	add := func(name, unit string, f func(w *win) float64, whole float64, n uint64) {
		med, lo, hi := p.windowed(f)
		ms = append(ms, metric{name, unit, med, nw,
			fmt.Sprintf("windows %.4g..%.4g, whole phase %.4g over %d samples", lo, hi, whole, n)})
	}
	add("krps", "krps", (*win).krps, float64(rpcs)/secs/1e3, rpcs)
	add("goodput_gbps", "Gbit/s", func(w *win) float64 { return w.krps() * 1e3 * bytesPerRPC * 8 / 1e9 },
		float64(rpcs)*bytesPerRPC*8/secs/1e9, rpcs)
	add("p50_us", "us", func(w *win) float64 { return us(w.lat.quantile(0.50)) }, us(p.lat.quantile(0.50)), rpcs)
	add("p99_us", "us", func(w *win) float64 { return us(w.lat.quantile(0.99)) }, us(p.lat.quantile(0.99)), rpcs)
	if p.lat.beyond(0.999) >= 10 {
		ms = append(ms, metric{"p999_us", "us", us(p.lat.quantile(0.999)), rpcs, "whole phase"})
	} else {
		ms = append(ms, metric{"p999_us", "us", math.NaN(), rpcs, "not reported: fewer than 10 samples beyond p99.9"})
	}
	add("cpu_us_per_rpc", "us", func(w *win) float64 { return perRPC(float64(w.cpuNs)/1e3, w.lat.n) },
		perRPC(float64(p.cpuNs)/1e3, rpcs), rpcs)
	ms = append(ms, metric{"allocs_per_rpc", "count", perRPC(float64(p.mallocs), rpcs), rpcs, "whole phase"})
	return ms
}

// runtimeLayer computes the runtime and counter metrics of an
// untraced phase: the program's own counters need no wrapper.
func (p *phase) runtimeLayer() []metric {
	secs := p.dur.Seconds()
	k, rpcs := &p.counters, p.checks.completed
	return []metric{
		{"runtime.cpu_util", "ratio", float64(p.cpuNs) / (secs * 1e9 * float64(runtime.GOMAXPROCS(0))), p.lat.n, ""},
		{"runtime.gc_per_s", "1/s", float64(p.numGC) / secs, uint64(p.numGC), ""},
		{"runtime.gc_pause_us_per_s", "us/s", float64(p.pauseNs) / 1e3 / secs, uint64(p.numGC), ""},
		{"runtime.allocs_per_rpc", "count", perRPC(float64(p.mallocs), p.lat.n), p.lat.n, ""},
		{"transport.syscalls_per_rpc", "count", perRPC(float64(k.syscalls), rpcs), rpcs, ""},
		{"transport.gso_segs_per_syscall", "count", ratio(float64(k.gsoSegs), float64(k.syscalls)), k.syscalls, ""},
		{"transport.gro_aliased_ratio", "ratio", ratio(float64(k.groAliased), float64(k.groAliased+k.groCopied)), k.groAliased + k.groCopied, ""},
		{"transport.rx_pool_fast_ratio", "ratio", ratio(float64(k.fastPuts), float64(k.fastPuts+k.sharedPuts)), k.fastPuts + k.sharedPuts, ""},
		{"transport.ring_drops", "count", float64(k.drops), 1, ""},
		{"core.pkts_per_rpc", "count", perRPC(float64(k.cli.PktsTx+k.srv.PktsTx), rpcs), rpcs, ""},
		{"core.retransmits_per_rpc", "count", perRPC(float64(k.cli.Retransmits+k.srv.Retransmits), rpcs), rpcs, ""},
		{"core.stale_pkts_per_rpc", "count", perRPC(float64(k.cli.StalePktsRx+k.srv.StalePktsRx), rpcs), rpcs, ""},
		{"core.zero_copy_tx_per_rpc", "count", perRPC(float64(k.cli.ZeroCopyTx+k.srv.ZeroCopyTx), rpcs), rpcs, ""},
	}
}

func runUntraced(w *workload, o options, out io.Writer) (result, error) {
	var all checks
	var setupS []float64
	var p phase
	in := newInputs(o.seed)
	a := newAudit(in.idBase)
	for i := 0; i < setups; i++ {
		s, err := newStack(w, in, a, nil)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, s.setup.Seconds())
		if i == 0 {
			fmt.Fprintf(out, "# host: %s\n", hostInfo(s.srvTrs[0].Engine()))
			printWorkload(out, w)
		}
		if i >= setups-measuredStacks {
			sp := measure(s, o.measure/measuredStacks)
			all.add(&sp.checks)
			report(out, "measured", &sp.checks)
			p.pool(sp)
		} else {
			c, _ := s.finish()
			all.add(&c)
			report(out, "setup", &c)
		}
		a.reset()
		// Collect the stack's garbage now, so the next one starts from a
		// settled heap and mem_mb is the footprint of one stack.
		runtime.GC()
	}

	ms := p.endToEnd()
	ms = append(ms,
		metric{"mem_mb", "MB", peakRSSMB(), 1, "peak RSS"},
		metric{"fail_ratio", "ratio", ratio(float64(all.failures()), float64(all.attempted)), all.attempted, "failed / attempted"},
		metric{"setup_s", "s", median(setupS), uint64(len(setupS)), fmt.Sprintf("median of %d set-ups, bind to first completed RPC", len(setupS))},
	)
	printMetrics(out, ms)
	return finalResult(&all, ms, e2eReported), nil
}

func runTraced(w *workload, o options, out io.Writer) (result, error) {
	floor, floorN, err := udpFloor(300 * time.Millisecond)
	if err != nil {
		return result{}, err
	}
	var all checks
	half := o.measure / 2
	in := newInputs(o.seed)
	a := newAudit(in.idBase)

	st, err := newStack(w, in, a, nil)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# host: %s\n", hostInfo(st.srvTrs[0].Engine()))
	printWorkload(out, w)
	plain := measure(st, half)
	all.add(&plain.checks)
	report(out, "untraced", &plain.checks)

	a.reset()
	runtime.GC()
	tr := newTracer()
	st, err = newStack(w, in, a, tr)
	if err != nil {
		return result{}, err
	}
	traced := measure(st, half)
	all.add(&traced.checks)
	report(out, "traced", &traced.checks)
	tr.flush()

	fmt.Fprintln(out, "# untraced phase:")
	plainE2E := printMetrics(out, plain.endToEnd())
	fmt.Fprintln(out, "# traced phase:")
	tracedE2E := printMetrics(out, traced.endToEnd())

	ms := []metric{{"net.udp_floor_us", "us", floor, uint64(floorN), "median round trip of a plain Go UDP ping-pong"}}
	ms = append(ms, plain.runtimeLayer()...)
	ms = append(ms, tr.layerMetrics(traced.checks.completed)...)
	ms = append(ms,
		metric{"trace.overhead_p50_us", "us", tracedE2E["p50_us"] - plainE2E["p50_us"], traced.lat.n, "traced minus untraced p50_us"},
		metric{"trace.overhead_krps", "krps", tracedE2E["krps"] - plainE2E["krps"], traced.lat.n, "traced minus untraced krps"},
	)
	fmt.Fprintln(out, "# per-layer (counters and runtime from the untraced phase, timings from the traced phase):")
	printMetrics(out, ms)

	if o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, o.seed))
		if err := tr.writeSpans(path); err != nil {
			return result{}, fmt.Errorf("write span log: %w", err)
		}
		fmt.Fprintf(out, "# span log: %d spans in %s\n", len(tr.spans), path)
	}
	return finalResult(&all, ms, nil), nil
}

// layerMetrics computes the traced phase's per-layer metrics.
func (t *tracer) layerMetrics(rpcs uint64) []metric {
	var wakes, txCalls, txFrames, rxCalls, rxEmpty, rxFrames uint64
	var txBurst, rxBurst, handoff, deliver hist
	for _, x := range t.ends {
		wakes += x.wakes.Load()
		txCalls += x.txCalls
		txFrames += x.txFrames
		rxCalls += x.rxCalls
		rxEmpty += x.rxEmpty
		rxFrames += x.rxFrames
		txBurst.merge(&x.txBurst)
		rxBurst.merge(&x.rxBurst)
		handoff.merge(&x.handoff)
		deliver.merge(&x.deliver)
	}
	seg := func(name string, k int) metric {
		return metric{name, "us", us(t.segHist[k].quantile(0.5)), t.segHist[k].n, "median over traced RPCs"}
	}
	ms := []metric{
		{"core.handoff_us.p50", "us", us(handoff.quantile(0.5)), handoff.n, ""},
		{"core.handoff_us.p99", "us", us(handoff.quantile(0.99)), handoff.n, ""},
		{"net.wakes_per_rpc", "count", perRPC(float64(wakes), rpcs), rpcs, ""},
		{"transport.rx_empty_poll_ratio", "ratio", ratio(float64(rxEmpty), float64(rxCalls)), rxCalls, ""},
		{"net.deliver_us.p50", "us", us(deliver.quantile(0.5)), deliver.n, ""},
		{"net.deliver_us.p99", "us", us(deliver.quantile(0.99)), deliver.n, ""},
		{"transport.tx_frames_per_burst", "count", ratio(float64(txFrames), float64(txCalls)), txCalls, ""},
		{"transport.rx_frames_per_burst", "count", ratio(float64(rxFrames), float64(rxCalls-rxEmpty)), rxCalls - rxEmpty, ""},
		{"transport.tx_burst_us", "us", us(txBurst.quantile(0.5)), txBurst.n, ""},
		{"transport.rx_burst_us", "us", us(rxBurst.quantile(0.5)), rxBurst.n, ""},
		seg("core.enqueue_us", ptEnqStart),
		seg("core.client_tx_wait_us", ptEnqEnd),
		seg("core.server_proto_us", ptSrvRxLast),
		seg("core.handler_us", ptHandlerStart),
		seg("core.server_tx_wait_us", ptHandlerEnd),
		seg("core.client_proto_us", ptCliRxLast),
		seg("core.req_transfer_us", ptSrvRxEnd),
		seg("core.resp_transfer_us", ptCliRxEnd),
	}
	for l, name := range layerNames {
		ms = append(ms, metric{"layer." + name + "_us_per_rpc", "us", us(perRPC(t.layerNs[l], t.rpcs)), t.rpcs, "self time, mean over traced RPCs"})
	}
	ms = append(ms,
		metric{"trace.unattributed_us_per_rpc", "us", us(perRPC(t.unattribNs, t.rpcs)), t.rpcs, "round trip not covered by a span, mean"},
		metric{"trace.unattributed_share", "ratio", ratio(t.unattribNs, t.rttNs), t.rpcs, "share of summed round trips not covered by a span"},
	)
	return ms
}

func printWorkload(out io.Writer, w *workload) {
	fmt.Fprintf(out, "# workload: closed loop, %d session(s) x %d slot(s) = window %d, request %d B, response %d B, handler in dispatch thread\n",
		w.sessions, w.slotsPerSession, w.window(), w.reqSize(), w.respSize())
}

func report(out io.Writer, what string, c *checks) {
	status := "ok"
	if !c.ok() {
		status = "FAILED"
	}
	fmt.Fprintf(out, "# check %s: %s attempted=%d completed=%d rpc_errors=%d wrong_bytes=%d dup_exec=%d dup_completion=%d completed_unexecuted=%d id_out_of_range=%d unresolved=%d drained=%t server_msgbufs=%d/%d(+%d retained) client_msgbufs=%d/%d\n",
		what, status, c.attempted, c.completed, c.rpcErrors, c.wrongBytes, c.dupExec, c.dupDone, c.unexecuted,
		c.outOfRange, c.unresolved, c.undrained == 0, c.srvAllocs, c.srvFrees, c.srvRetained, c.cliAllocs, c.cliFrees)
}

// printMetrics prints one line per metric and returns their values
// by name.
func printMetrics(out io.Writer, ms []metric) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range ms {
		v := fmt.Sprintf("%14.4f", m.value)
		if math.IsNaN(m.value) {
			v = fmt.Sprintf("%14s", "n/a")
		}
		fmt.Fprintf(out, "%-34s %s %-7s n=%-9d %s\n", m.name, v, m.unit, m.n, m.note)
		vals[m.name] = m.value
	}
	return vals
}

// finalResult builds the JSON result from the metrics named in keep,
// or from all of them when keep is nil.
func finalResult(all *checks, ms []metric, keep []string) result {
	res := result{
		Correct:   all.ok(),
		Attempted: all.attempted,
		Failed:    all.failures(),
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range ms {
		if keep != nil && !slices.Contains(keep, m.name) {
			continue
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return res
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
