package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// workloads.json holds what differs between the workloads — shapes, cache
// sizes, offered rates, ladders and latency limits — and records each
// workload's provenance (which layers it exercises and bypasses, the seeds
// it was run with), which the program does not read; the one-line reason
// each workload was chosen is its "why" in BENCHMARK.json. Rates are
// absolute numbers, never derived from a capacity measured in the same
// run — a faster program must not raise its own load.
//
//go:embed workloads.json
var workloadsJSON []byte

// Settings every workload that uses them shares.
const (
	datasetName = "ogbn-products-sim"
	hidden      = 64
	trainLR     = 0.01

	// The serving fleet: distgnn-serve's coalescer defaults, and a
	// checkpoint trained by train.SingleSocket.
	fleetShards      = 2
	maxBatch         = 16
	maxWait          = 2 * time.Millisecond
	checkpointEpochs = 3
	checkpointLR     = 0.02

	// setupRepeats is how many times the fleet is set up; setup_s is the
	// median.
	setupRepeats = 3
	// rungRequests is the number of reads in one play of a ladder rung.
	rungRequests = 1000
	// replayRequests is the number of vertices the traced serving replay
	// re-infers.
	replayRequests = 300
	// checkVertices is how many vertices serve-mixed checks on every rank
	// against the final graph once the write stream has drained.
	checkVertices = 200
)

// workloadConfig is one workload's entry in workloads.json.
type workloadConfig struct {
	Scale  float64 `json:"scale"`
	Layers int     `json:"layers"`

	// Training.
	Partitions int     `json:"partitions,omitempty"`
	Delay      int     `json:"delay,omitempty"`
	EpochsLo   int     `json:"epochs_lo,omitempty"`
	EpochsHi   int     `json:"epochs_hi,omitempty"`
	Epochs     int     `json:"epochs,omitempty"`
	Fanouts    []int   `json:"fanouts,omitempty"`
	BatchSize  int     `json:"batch_size,omitempty"`
	Ranks      int     `json:"ranks,omitempty"`
	HaloMB     float64 `json:"halo_cache_mb,omitempty"`

	// Serving.
	FeatureCacheMB   float64   `json:"feature_cache_mb,omitempty"`
	EmbedCacheMB     float64   `json:"embed_cache_mb,omitempty"`
	Zipf             float64   `json:"zipf_s,omitempty"`
	WarmupMax        int       `json:"warmup_max_requests,omitempty"`
	RefRate          float64   `json:"reference_rps,omitempty"`
	RefSeconds       float64   `json:"reference_seconds,omitempty"`
	Ladder           []float64 `json:"ladder_rps,omitempty"`
	LimitP99MS       float64   `json:"limit_p99_ms,omitempty"`
	WriteEdgesPerSec float64   `json:"write_edges_per_s,omitempty"`
	WriteBatch       int       `json:"write_batch,omitempty"`
	CompactThreshold int       `json:"compact_threshold,omitempty"`
}

func loadConfig(name string) (workloadConfig, error) {
	var all map[string]workloadConfig
	if err := json.Unmarshal(workloadsJSON, &all); err != nil {
		return workloadConfig{}, fmt.Errorf("workloads.json: %w", err)
	}
	cfg, ok := all[name]
	if !ok {
		return workloadConfig{}, fmt.Errorf("workloads.json has no entry for %q", name)
	}
	return cfg, nil
}
