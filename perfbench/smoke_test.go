package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run verifies cleanly and reports its metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := run(wl, 3, 2, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if out.attempted == 0 || out.failed != 0 || len(out.problems) != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d problems %v", wl, traced, out.attempted, out.failed, out.problems)
			}
			if !traced {
				for _, d := range endToEnd {
					if out.metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, out.metrics[d.name])
					}
				}
				continue
			}
			for _, name := range []string{"stage.ls.xfer.p50_us", "stage.ls.service.p50_us", "stage.tc.queue.p50_us",
				"stage.tc.notify.p50_us", "core.resp_pdus_per_io", "runtime.allocs_per_io", "trace.matched_frac"} {
				if out.metrics[name] <= 0 {
					t.Errorf("%s: per-layer metric %s = %v, want > 0", wl, name, out.metrics[name])
				}
			}
			for name := range out.metrics {
				if !isDefined(name) {
					t.Errorf("%s: reports %s, which no metric list defines", wl, name)
				}
			}
		}
	}
}

func isDefined(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// TestBenchmarkJSON pins BENCHMARK.json at the repository root to the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the program %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s (%s) in BENCHMARK.json, %s (%s) here", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s (%s) in BENCHMARK.json, %s (%s) here", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
