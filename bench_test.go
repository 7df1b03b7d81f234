// Package repro's top-level benchmarks regenerate every table and
// figure of the eRPC paper's evaluation, one testing.B benchmark per
// artifact. Each iteration runs the experiment at a reduced scale
// (fast enough for `go test -bench`); run `cmd/erpc-bench -exp <id>`
// for the full-scale, paper-faithful configuration, whose output is
// recorded in EXPERIMENTS.md.
//
// Reported custom metrics carry the headline number of each artifact
// so regressions in reproduction quality show up in benchmark diffs.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// run executes one experiment per iteration at test scale and reports
// its rows through b.Log (visible with -v).
func run(b *testing.B, id string, scale float64) *experiments.Report {
	b.Helper()
	fn, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = fn(experiments.Options{Scale: scale, Seed: int64(42 + i)})
	}
	b.Log("\n" + rep.String())
	return rep
}

// firstFloat extracts the headline numeric token from a measured
// cell, preferring the value after a "p50=" label when present.
func firstFloat(s string) float64 {
	if i := strings.Index(s, "p50="); i >= 0 {
		s = s[i+4:]
	}
	for _, f := range strings.FieldsFunc(s, func(r rune) bool {
		return (r < '0' || r > '9') && r != '.' && r != '-'
	}) {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			return v
		}
	}
	return 0
}

func reportRow(b *testing.B, rep *experiments.Report, i int, unit string) {
	if i < len(rep.Rows) {
		b.ReportMetric(firstFloat(rep.Rows[i].Measured), unit)
	}
}

// BenchmarkFig1 regenerates Figure 1: RDMA read rate vs connections
// per NIC (the connection-scalability motivation for eRPC's design).
func BenchmarkFig1(b *testing.B) {
	rep := run(b, "fig1", 0.25)
	reportRow(b, rep, len(rep.Rows)-1, "Mops-at-5000-conns")
}

// BenchmarkTable2 regenerates Table 2: median small-RPC latency vs
// RDMA reads on CX3/CX4/CX5.
func BenchmarkTable2(b *testing.B) {
	rep := run(b, "tab2", 0.25)
	reportRow(b, rep, 3, "us-eRPC-CX4") // CX4 eRPC row
}

// BenchmarkFig4 regenerates Figure 4: single-core small-RPC rate for
// FaSST and eRPC, B ∈ {3, 5, 11}.
func BenchmarkFig4(b *testing.B) {
	rep := run(b, "fig4", 0.25)
	reportRow(b, rep, 2, "Mrps-eRPC-CX4-B3")
}

// BenchmarkTable3 regenerates Table 3: the factor analysis of the
// common-case optimizations.
func BenchmarkTable3(b *testing.B) {
	rep := run(b, "tab3", 0.2)
	reportRow(b, rep, 0, "Mrps-baseline")
}

// BenchmarkFig5 regenerates Figure 5: latency percentiles with
// increasing threads per node on the CX4 cluster.
func BenchmarkFig5(b *testing.B) {
	rep := run(b, "fig5", 0.2)
	reportRow(b, rep, 0, "us-p50-T1")
}

// BenchmarkFig6 regenerates Figure 6: large-RPC goodput vs RDMA
// writes on 100 Gbps InfiniBand.
func BenchmarkFig6(b *testing.B) {
	rep := run(b, "fig6", 0.25)
	reportRow(b, rep, len(rep.Rows)-2, "Gbps-8MB")
}

// BenchmarkTable4 regenerates Table 4: 8 MB throughput under injected
// packet loss.
func BenchmarkTable4(b *testing.B) {
	rep := run(b, "tab4", 0.15)
	reportRow(b, rep, 0, "Gbps-low-loss")
}

// BenchmarkTable5 regenerates Table 5: incast bandwidth and RTT with
// and without congestion control.
func BenchmarkTable5(b *testing.B) {
	rep := run(b, "tab5", 0.3)
	reportRow(b, rep, 0, "Gbps-20way-cc")
}

// BenchmarkSec65 regenerates §6.5's background-traffic experiment:
// 64 kB latency-sensitive RPCs in an incast.
func BenchmarkSec65(b *testing.B) {
	rep := run(b, "sec65", 0.3)
	reportRow(b, rep, 0, "us-p50")
}

// BenchmarkTable6 regenerates Table 6: replicated PUT latency with
// Raft over eRPC vs published NetChain/ZabFPGA numbers.
func BenchmarkTable6(b *testing.B) {
	rep := run(b, "tab6", 0.25)
	reportRow(b, rep, 1, "us-client-p50")
}

// BenchmarkSec72 regenerates §7.2: Masstree over eRPC throughput and
// tail latency, dispatch-only vs worker-thread scans.
func BenchmarkSec72(b *testing.B) {
	rep := run(b, "sec72", 0.25)
	reportRow(b, rep, 0, "MGets-per-s")
}

// BenchmarkMulticore sweeps the multi-endpoint server runtime from 1
// to 8 dispatch endpoints (sessions striped across them by flow hash)
// and reports the 1- and 8-endpoint request rates; the full sweep is
// in the report (go test -bench Multicore -v).
func BenchmarkMulticore(b *testing.B) {
	rep := run(b, "multicore", 0.25)
	reportRow(b, rep, 0, "Mrps-1ep")
	reportRow(b, rep, len(rep.Rows)-1, "Mrps-8ep")
}
