package minibatch

import (
	"fmt"
	"math/rand"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/nn"
)

// DistConfig configures distributed mini-batch training — the paper's §7
// headline future-work item ("we expect to demonstrate highly scalable
// DistGNN for mini-batch training"), realized Dist-DGL style: training
// vertices are sharded across ranks, every rank samples its own
// mini-batches, and gradients are AllReduced per step so all model
// replicas stay identical.
type DistConfig struct {
	Config
	NumRanks int
}

// DistEpochStat is one distributed mini-batch epoch.
type DistEpochStat struct {
	Loss        float64
	Time        time.Duration
	SampledWork int64 // summed across ranks
	Steps       int   // synchronized optimizer steps
	// AllReduce is the wall time spent inside the per-step gradient
	// AllReduce this epoch: the max across ranks for the in-process
	// trainer, this rank's own time on a TCP endpoint. Pure timing —
	// recording it never changes a reduction's float order.
	AllReduce time.Duration
}

// DistResult is the outcome of a distributed mini-batch run.
type DistResult struct {
	Epochs  []DistEpochStat
	TestAcc float64
	// Params is the final flattened parameter vector (rank 0's replica; all
	// replicas are identical). The distributed-minibatch conformance harness
	// compares it bit for bit across rank counts, transports, and against
	// the replicated reference.
	Params []float32
	// HaloStats is the per-rank featstore fetch/cache snapshot, populated by
	// TrainSharded only (rank-indexed; a TCP endpoint fills only its own
	// rank's entry).
	HaloStats []featstore.ShardedStats
}

// TrainDistributed runs data-parallel mini-batch training over NumRanks
// in-process ranks.
func TrainDistributed(ds *datasets.Dataset, cfg DistConfig) (*DistResult, error) {
	if cfg.NumRanks < 1 {
		return nil, fmt.Errorf("minibatch: NumRanks must be ≥1, got %d", cfg.NumRanks)
	}
	if cfg.NumLayers != len(cfg.Fanouts) {
		return nil, fmt.Errorf("minibatch: NumLayers %d != len(Fanouts) %d", cfg.NumLayers, len(cfg.Fanouts))
	}
	if cfg.BatchSize < 1 || cfg.Epochs < 1 {
		return nil, fmt.Errorf("minibatch: BatchSize and Epochs must be positive")
	}
	// Shard training vertices round-robin after one seeded shuffle.
	shuffled := append([]int32(nil), ds.TrainIdx...)
	rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	shards := make([][]int32, cfg.NumRanks)
	for i, v := range shuffled {
		shards[i%cfg.NumRanks] = append(shards[i%cfg.NumRanks], v)
	}

	world := comm.NewWorld(cfg.NumRanks)
	type rank struct {
		model   *mbModel
		sampler *Sampler
		opt     nn.Optimizer
		rng     *rand.Rand
		shard   []int32
	}
	ranks := make([]*rank, cfg.NumRanks)
	for rID := range ranks {
		// Identical model seed on every rank; per-rank sampler seeds.
		mrng := rand.New(rand.NewSource(cfg.Seed + 100))
		m := newMBModel(ds.Features.Cols, cfg.Hidden, ds.NumClasses, cfg.NumLayers, mrng)
		sampler, err := NewSampler(ds.G, cfg.Fanouts, cfg.Seed+int64(rID))
		if err != nil {
			return nil, err
		}
		var opt nn.Optimizer
		if cfg.UseAdam {
			opt = nn.NewAdam(cfg.LR, 0)
		} else {
			opt = &nn.SGD{LR: cfg.LR}
		}
		ranks[rID] = &rank{
			model: m, sampler: sampler, opt: opt,
			rng:   rand.New(rand.NewSource(cfg.Seed + 1000 + int64(rID))),
			shard: append([]int32(nil), shards[rID]...),
		}
	}

	// All ranks must execute the same number of synchronized steps per
	// epoch; ranks that run out of local batches contribute zero gradients.
	maxBatches := 0
	for _, r := range ranks {
		b := (len(r.shard) + cfg.BatchSize - 1) / cfg.BatchSize
		if b > maxBatches {
			maxBatches = b
		}
	}
	if maxBatches == 0 {
		return nil, fmt.Errorf("minibatch: no training vertices")
	}

	res := &DistResult{}
	lossParts := make([]float64, cfg.NumRanks)
	workParts := make([]int64, cfg.NumRanks)
	arParts := make([]time.Duration, cfg.NumRanks)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		for i := range lossParts {
			lossParts[i], workParts[i], arParts[i] = 0, 0, 0
		}
		world.Run(func(rID int) {
			r := ranks[rID]
			r.rng.Shuffle(len(r.shard), func(i, j int) {
				r.shard[i], r.shard[j] = r.shard[j], r.shard[i]
			})
			params := r.model.params()
			for step := 0; step < maxBatches; step++ {
				nn.ZeroGrads(params)
				var seeds []int32
				if off := step * cfg.BatchSize; off < len(r.shard) {
					end := off + cfg.BatchSize
					if end > len(r.shard) {
						end = len(r.shard)
					}
					seeds = r.shard[off:end]
				}
				var batchN int
				if len(seeds) > 0 {
					s := r.sampler.Sample(seeds)
					logits := r.model.forward(s, ds.Features, s.InputFrontier(), true)
					localLabels := make([]int32, len(seeds))
					mask := make([]int32, len(seeds))
					for i, g := range seeds {
						localLabels[i] = ds.Labels[g]
						mask[i] = int32(i)
					}
					loss, dlogits := nn.MaskedCrossEntropy(logits, localLabels, mask)
					r.model.backward(dlogits)
					lossParts[rID] += loss * float64(len(seeds))
					workParts[rID] += sampledWork(s, r.model.dims)
					batchN = len(seeds)
				}
				// Scale the local gradient to its share of the global batch,
				// then AllReduce. Idle ranks contribute zeros.
				global := globalBatchSize(shards, step, cfg.BatchSize)
				scale := float32(0)
				if global > 0 {
					scale = float32(batchN) / float32(global)
				}
				for _, p := range params {
					p.Grad.Scale(scale)
				}
				gbuf := nn.FlattenParams(params, true)
				arStart := time.Now()
				world.AllReduceSum(rID, gbuf)
				arParts[rID] += time.Since(arStart)
				nn.UnflattenParams(params, gbuf, true)
				r.opt.Step(params)
			}
		})
		st := DistEpochStat{Time: time.Since(start), Steps: maxBatches}
		var lsum float64
		for rID := range ranks {
			lsum += lossParts[rID]
			st.SampledWork += workParts[rID]
			if arParts[rID] > st.AllReduce {
				st.AllReduce = arParts[rID]
			}
		}
		if len(ds.TrainIdx) > 0 {
			st.Loss = lsum / float64(len(ds.TrainIdx))
		}
		res.Epochs = append(res.Epochs, st)
	}

	res.Params = nn.FlattenParams(ranks[0].model.params(), false)

	// Replicas are identical; evaluate with rank 0's model and sampler.
	res.TestAcc = evaluate(ds, ranks[0].sampler, ranks[0].model, cfg.BatchSize)
	return res, nil
}

// globalBatchSize sums the batch sizes all ranks process at a given step.
func globalBatchSize(shards [][]int32, step, batch int) int {
	total := 0
	for _, shard := range shards {
		off := step * batch
		if off < len(shard) {
			n := len(shard) - off
			if n > batch {
				n = batch
			}
			total += n
		}
	}
	return total
}
