package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// spec is the part of ../BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that every check passes and every metric BENCHMARK.json names
// is printed with its unit and sample count and is in the JSON result,
// which holds nothing else. BENCHMARK.json lists the workloads steady
// enough to gate on; burst runs here too.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			var out bytes.Buffer
			res, err := run(options{workload: w.name, seed: 3, measure: 400 * time.Millisecond, trace: trace, spansDir: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			report := out.String()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, report)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: JSON has %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s: got %+v (present %t), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `\s+n=\d+`)
				if !line.MatchString(report) {
					t.Errorf("%s trace=%t: no report line for %s [%s]", w.name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}
