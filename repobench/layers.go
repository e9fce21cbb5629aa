package main

import "fmt"

// endToEnd lists the end-to-end metrics every workload prints with
// --trace 0. The names are shared by all four workloads, so each has one
// reading per workload kind:
//
//	heap_mb      live Go heap after collection, 75th percentile over the run's collections
//	p50_ms       training: steady-state epoch wall time; serving: /predict p50 at the reference rate
//	tail_ms      training: wall time of the whole fixed-length job; serving: /predict p90 at the reference rate, lowest over windows of 400 reads
//	loss         training: loss after the fixed epoch count; serving: cross-entropy of the served logits
//	success_rate operations without a failure or a wrong answer, over those attempted
var endToEnd = map[string]string{
	"setup_s":      "s",
	"heap_mb":      "MB",
	"p50_ms":       "ms",
	"tail_ms":      "ms",
	"loss":         "nats",
	"success_rate": "frac",
}

// perLayer lists the per-layer metrics every workload prints with
// --trace 1. A layer a workload does not exercise reads 0. Times are per
// epoch for training and per request (or per batch, where named) for
// serving. Both lists must agree with BENCHMARK.json, which
// TestBenchmarkJSONAgrees checks.
var perLayer = map[string]string{
	"spmm.agg_l0_ms":           "ms",
	"spmm.agg_l1_ms":           "ms",
	"spmm.agg_l2_ms":           "ms",
	"spmm.agg_bwd_ms":          "ms",
	"tensor.dense_l0_ms":       "ms",
	"tensor.dense_l1_ms":       "ms",
	"tensor.dense_l2_ms":       "ms",
	"tensor.dense_bwd_ms":      "ms",
	"comm.exchange_ms":         "ms",
	"comm.exchange_bytes":      "bytes",
	"comm.allreduce_ms":        "ms",
	"comm.halo_bytes":          "bytes",
	"nn.optim_ms":              "ms",
	"partition.partition_s":    "s",
	"partition.replication":    "ratio",
	"minibatch.sample_ms":      "ms",
	"minibatch.expand_ms":      "ms",
	"minibatch.frontier_rows":  "rows",
	"featstore.gather_ms":      "ms",
	"featstore.halo_rows":      "rows",
	"featstore.halo_hit_ratio": "ratio",
	"serve.infer_ms":           "ms",
	"serve.http_ms":            "ms",
	"serve.queue_wait_ms":      "ms",
	"serve.batch_size":         "count",
	"serve.embed_hit_ratio":    "ratio",
	"serve.routed_frac":        "frac",
	"serve.update_p50_ms":      "ms",
	"serve.update_p90_ms":      "ms",
	"serve.invalidated_rows":   "rows",
	"graph.insert_ms":          "ms",
	"graph.compact_ms":         "ms",
	"graph.compactions":        "count",
	"train.single_epoch_s":     "s",
	"loadgen.goodput_rps":      "1/s",
	"loadgen.read_p99_ms":      "ms",
	"loadgen.late_p99_ms":      "ms",
	"loadgen.wait_ms":          "ms",
	"trace.unaccounted_frac":   "frac",
}

// selectMetrics keeps exactly the metrics of the run's mode: every
// end-to-end metric (each must have been measured), or every per-layer
// metric (an unmeasured layer reads 0).
func selectMetrics(rc *runCtx) error {
	out := map[string]metric{}
	if !rc.trace {
		for name, unit := range endToEnd {
			m, ok := rc.res.Metrics[name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			if m.Unit != unit {
				return fmt.Errorf("metric %s has unit %s, want %s", name, m.Unit, unit)
			}
			out[name] = m
		}
	} else {
		for name, unit := range perLayer {
			m, ok := rc.res.Metrics[name]
			if !ok {
				m = metric{Unit: unit}
			}
			if m.Unit != unit {
				return fmt.Errorf("metric %s has unit %s, want %s", name, m.Unit, unit)
			}
			out[name] = m
		}
	}
	rc.res.Metrics = out
	return nil
}

// traceSlack bounds |trace.unaccounted_frac|: the replayed stages must
// account for the end-to-end figure to within this share of it.
const traceSlack = 0.4
