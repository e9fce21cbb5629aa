package bench

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// regress.go is the perf regression gate behind `distgnn-bench -check`:
// gated experiments emit a MetricsEnvelope inside their JSON report, a
// baseline envelope lives in BENCH_baseline/<experiment>.json (committed,
// regenerated with -update-baseline), and CheckRegression diffs the two.
// Raw wall times are not comparable across machines, so every envelope
// carries the wall time of a fixed scalar calibration workload measured on
// the machine that produced it; the gate scales the baseline's budget by
// the calibration ratio before applying the tolerance. A 1.3×-slower CI
// runner gets a 1.3×-larger budget — only a genuinely slower kernel fails.

// MetricsEnvelope is the machine-comparable subset of a gated experiment's
// JSON report (the report structs embed these fields under the same keys).
type MetricsEnvelope struct {
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	Epochs     int     `json:"epochs"`
	// Metrics are lower-is-better wall-clock quantities (seconds or ms —
	// any unit, as long as baseline and current agree per key).
	Metrics map[string]float64 `json:"metrics"`
	// CalibSeconds is CalibrationSeconds() on the producing machine.
	CalibSeconds float64 `json:"calib_seconds"`
}

// DefaultTolerance is the relative slowdown -check permits after
// calibration scaling.
const DefaultTolerance = 0.15

// GatedExperiments lists the experiment IDs -check and -update-baseline
// cover when none are named explicitly.
func GatedExperiments() []string {
	return []string{"abl-kernels", "abl-serve", "abl-distmb", "abl-obs", "abl-stream"}
}

// CheckRegression compares cur against base and returns one human-readable
// failure per violated budget (empty = pass). A metric regresses when
//
//	cur > base · (cur.CalibSeconds / base.CalibSeconds) · (1 + tol)
//
// i.e. the baseline budget is first rescaled to the current machine's
// speed. Missing metrics and mismatched run shape (experiment, scale,
// epochs) are failures too — a baseline from a different configuration
// cannot vouch for this run. Metrics present only in cur are ignored so
// adding a new metric doesn't break -check before -update-baseline runs.
func CheckRegression(base, cur MetricsEnvelope, tol float64) []string {
	var fails []string
	if base.Experiment != cur.Experiment {
		fails = append(fails, fmt.Sprintf("experiment mismatch: baseline %q vs current %q",
			base.Experiment, cur.Experiment))
	}
	if base.Scale != cur.Scale {
		fails = append(fails, fmt.Sprintf("scale mismatch: baseline %g vs current %g (rerun -check with the baseline's -scale, or -update-baseline)",
			base.Scale, cur.Scale))
	}
	if base.Epochs != cur.Epochs {
		fails = append(fails, fmt.Sprintf("epochs mismatch: baseline %d vs current %d",
			base.Epochs, cur.Epochs))
	}
	speed := 1.0
	if base.CalibSeconds > 0 && cur.CalibSeconds > 0 {
		speed = cur.CalibSeconds / base.CalibSeconds
	}
	keys := make([]string, 0, len(base.Metrics))
	for k := range base.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bv := base.Metrics[k]
		cv, ok := cur.Metrics[k]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from current run (baseline %.4g)", k, bv))
			continue
		}
		allowed := bv * speed * (1 + tol)
		if cv > allowed {
			fails = append(fails, fmt.Sprintf(
				"%s regressed: %.4g > allowed %.4g (baseline %.4g × calib %.2f × %.0f%% tolerance)",
				k, cv, allowed, bv, speed, 100*tol))
		}
	}
	return fails
}

// calibSink defeats dead-code elimination of the calibration loop.
var calibSink float32

// CalibrationSeconds times a fixed single-threaded scalar fp32 workload
// (a 192³ matmul, min of 3) — the per-machine speed scalar CheckRegression
// normalizes by. It is a probe of machine speed, not a copy of any gated
// kernel: it stays plain scalar Go with no worker pool on purpose, so its
// time does not move when a kernel gains a SIMD path.
func CalibrationSeconds() float64 {
	const n = 192
	a := make([]float32, n*n)
	b := make([]float32, n*n)
	c := make([]float32, n*n)
	state := uint32(7)
	for i := range a {
		state = state*1664525 + 1013904223
		a[i] = float32(state>>8) / float32(1<<24)
		b[i] = float32(state>>16) / float32(1<<16)
	}
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ci := c[i*n : (i+1)*n]
			for j := range ci {
				ci[j] = 0
			}
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				bk := b[k*n : (k+1)*n]
				for j := range ci {
					ci[j] += aik * bk[j]
				}
			}
		}
		if sec := time.Since(t0).Seconds(); sec < best {
			best = sec
		}
		calibSink += c[0]
	}
	return best
}
