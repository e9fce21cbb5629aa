package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestStagesAddUp runs every workload's traced replay with a one-second
// budget and checks that the run is correct, that every per-layer metric
// is printed, and that the replayed stages add up to the end-to-end figure
// within traceSlack.
func TestStagesAddUp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg, err := loadConfig(name)
			if err != nil {
				t.Fatal(err)
			}
			rc := &runCtx{seed: 1, budget: time.Second, trace: true, cfg: cfg,
				res: result{Correct: true, Metrics: map[string]metric{}}}
			if err := fn(rc); err != nil {
				t.Fatal(err)
			}
			if err := selectMetrics(rc); err != nil {
				t.Fatal(err)
			}
			if rc.res.Failed != 0 || rc.res.Attempted == 0 {
				t.Fatalf("%d of %d operations failed", rc.res.Failed, rc.res.Attempted)
			}
			if len(rc.res.Metrics) != len(perLayer) {
				t.Fatalf("printed %d per-layer metrics, want %d", len(rc.res.Metrics), len(perLayer))
			}
			u := rc.res.Metrics["trace.unaccounted_frac"].Value
			if math.Abs(u) > traceSlack {
				t.Errorf("stages leave %.3f of the end-to-end figure unaccounted, slack is %.2f", u, traceSlack)
			}
		})
	}
}

// TestEndToEndMetricsComplete checks that a workload prints exactly the
// end-to-end metrics, each with its unit.
func TestEndToEndMetricsComplete(t *testing.T) {
	rc := &runCtx{res: result{Metrics: map[string]metric{}}}
	for name, unit := range endToEnd {
		rc.set(name, 1, unit)
	}
	rc.set("spmm.agg_l0_ms", 1, "ms")
	if err := selectMetrics(rc); err != nil {
		t.Fatal(err)
	}
	if len(rc.res.Metrics) != len(endToEnd) {
		t.Fatalf("kept %d metrics, want the %d end-to-end ones", len(rc.res.Metrics), len(endToEnd))
	}
	delete(rc.res.Metrics, "p50_ms")
	if err := selectMetrics(rc); err == nil {
		t.Fatal("a missing end-to-end metric must be an error")
	}
}

// TestQuantiles pins the percentile helpers on a known sample.
func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v, want 2", got)
	}
	long := make([]float64, 2*refWindow)
	for i := range long {
		long[i] = float64(i % refWindow)
	}
	if got := windowed(long, 0.5); got != quantile(long[:refWindow], 0.5) {
		t.Fatalf("windowed median = %v", got)
	}
	// Three windows whose values are offset by 0, 10 and 5: the lowest
	// window's p90 is the first window's.
	three := make([]float64, 3*tailWindow)
	for i := range three {
		three[i] = float64(i%tailWindow) + []float64{0, 10, 5}[i/tailWindow]
	}
	if got, want := bestWindow(three, 0.9), quantile(three[:tailWindow], 0.9); got != want {
		t.Fatalf("bestWindow p90 = %v, want %v", got, want)
	}
	if got, want := bestWindow(xs, 0.5), median(xs); got != want {
		t.Fatalf("bestWindow of a short sample = %v, want its median %v", got, want)
	}
}

// TestBenchmarkJSONAgrees checks that ../BENCHMARK.json names exactly the
// workloads this package runs and workloads.json configures, and exactly
// the metrics it prints, each with the unit it prints.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var configured map[string]json.RawMessage
	if err := json.Unmarshal(workloadsJSON, &configured); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(configured) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json %d, the runner %d",
			len(b.Workloads), len(configured), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
		if _, ok := configured[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in workloads.json", w.Name)
		}
	}
	for _, set := range []struct {
		what  string
		json  []named
		units map[string]string
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(set.json) != len(set.units) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark prints %d",
				len(set.json), set.what, len(set.units))
		}
		for _, m := range set.json {
			if unit, ok := set.units[m.Name]; !ok || unit != m.Unit {
				t.Errorf("BENCHMARK.json %s metric %s [%s]: printed with unit %q", set.what, m.Name, m.Unit, unit)
			}
		}
	}
}
