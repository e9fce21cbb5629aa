package minibatch

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/nn"
	"distgnn/internal/partition"
	"distgnn/internal/tensor"
)

// distsharded.go is TrainDistributed with the feature replication removed:
// training vertices are still sharded round-robin and gradients AllReduced
// per step, but every rank materializes only the feature rows of the
// vertices it owns (internal/partition's deterministic vertex-cut reduced
// to unique owners, exactly as the sharded serving engine does) and reads
// everything else through featstore.Sharded — one batched halo fetch per
// owner rank over the comm.ReqRep plane, absorbed by a per-rank LRU, issued
// for batch t+1 while batch t computes.
//
// The bit-identity chain to the replicated reference (TrainDistributed with
// identical Config): the sampler/model/shuffle seed derivations are copied
// verbatim, so every rank draws the same batches and sampled blocks; a
// sharded gather returns the exact fp32 bits of the resident matrix
// (featstore's contract); layer-0 aggregation over the gathered matrix is
// pinned bit-identical to the fused kernel TrainDistributed uses
// (TestFusedGatherAggExact); and AllReduce reduces in rank order on both
// fabrics. Final parameters are therefore bit-identical across 1/2/4 ranks,
// both transports, and against TrainDistributed — the pin
// TestTrainShardedConformance holds.

// ShardedTrainConfig configures sharded sampled mini-batch training.
type ShardedTrainConfig struct {
	DistConfig
	// Transport selects the fabric. Nil runs all NumRanks ranks in this
	// process over a fresh in-process world. A single-rank endpoint (TCP)
	// runs rank Transport.Self() in this process; the caller launches one
	// process per rank. The transport stays owned by the caller.
	Transport comm.Transport
	// PartitionSeed seeds the deterministic partitioning every rank derives
	// identically (default 1, matching serve's shard mode).
	PartitionSeed int64
	// CacheBytes budgets the per-rank LRU of fetched halo feature rows;
	// ≤ 0 disables caching.
	CacheBytes int64
	// NoPrefetch disables the one-batch sample+gather pipeline, running the
	// halo fetch inline with compute. Results are bit-identical either way;
	// the flag exists to measure what the overlap buys.
	NoPrefetch bool
}

// TrainSharded runs data-parallel sampled mini-batch training with
// owner-sharded features. It returns the same DistResult TrainDistributed
// does (deterministic Loss/Steps/SampledWork, final Params, TestAcc agreed
// by all ranks) plus per-rank halo-fetch stats.
func TrainSharded(ds *datasets.Dataset, cfg ShardedTrainConfig) (*DistResult, error) {
	if cfg.NumRanks < 1 {
		return nil, fmt.Errorf("minibatch: NumRanks must be ≥1, got %d", cfg.NumRanks)
	}
	if cfg.NumLayers != len(cfg.Fanouts) {
		return nil, fmt.Errorf("minibatch: NumLayers %d != len(Fanouts) %d", cfg.NumLayers, len(cfg.Fanouts))
	}
	if cfg.BatchSize < 1 || cfg.Epochs < 1 {
		return nil, fmt.Errorf("minibatch: BatchSize and Epochs must be positive")
	}
	if cfg.Transport != nil && cfg.Transport.Size() != cfg.NumRanks {
		return nil, fmt.Errorf("minibatch: transport spans %d ranks, NumRanks is %d",
			cfg.Transport.Size(), cfg.NumRanks)
	}
	if cfg.PartitionSeed == 0 {
		cfg.PartitionSeed = 1
	}

	// Every rank derives the identical owner table and train-vertex shards;
	// both are pure functions of the dataset and seeds.
	pt, err := partition.Partition(ds.G, partition.Libra{Seed: cfg.PartitionSeed}, cfg.NumRanks, cfg.PartitionSeed)
	if err != nil {
		return nil, fmt.Errorf("minibatch: shard partitioning: %w", err)
	}
	owners := pt.Owners()
	shards := shardTrainIdx(ds.TrainIdx, cfg.Seed, cfg.NumRanks)
	maxBatches := 0
	for _, shard := range shards {
		if b := (len(shard) + cfg.BatchSize - 1) / cfg.BatchSize; b > maxBatches {
			maxBatches = b
		}
	}
	if maxBatches == 0 {
		return nil, fmt.Errorf("minibatch: no training vertices")
	}

	if cfg.Transport == nil {
		world := comm.NewWorld(cfg.NumRanks)
		results := make([]*DistResult, cfg.NumRanks)
		errs := make([]error, cfg.NumRanks)
		world.Run(func(rank int) {
			results[rank], errs[rank] = trainShardedRank(ds, cfg, world, rank, owners, shards, maxBatches)
		})
		// The fabric is this call's own: closing it stops every rank's
		// ReqRep responder, which would otherwise block in Recv forever
		// and keep its feature store live.
		world.Transport().Close()
		for rank, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("minibatch: rank %d: %w", rank, err)
			}
		}
		// Deterministic fields agree across ranks; fold the per-rank halo
		// stats into rank 0's result so the caller sees the whole fleet.
		res := results[0]
		for rank := 1; rank < cfg.NumRanks; rank++ {
			res.HaloStats[rank] = results[rank].HaloStats[rank]
		}
		return res, nil
	}
	world := comm.NewWorldTransport(cfg.Transport)
	return trainShardedRank(ds, cfg, world, world.Self(), owners, shards, maxBatches)
}

// shardTrainIdx mirrors TrainDistributed's training-vertex sharding bit for
// bit: one seeded shuffle, then round-robin.
func shardTrainIdx(trainIdx []int32, seed int64, ranks int) [][]int32 {
	shuffled := append([]int32(nil), trainIdx...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	shards := make([][]int32, ranks)
	for i, v := range shuffled {
		shards[i%ranks] = append(shards[i%ranks], v)
	}
	return shards
}

// sampledBatch is one step's prefetched work: the sampled blocks and the
// gathered input-frontier features (nil Sample for an idle step on a rank
// that ran out of local batches).
type sampledBatch struct {
	seeds []int32
	s     *Sample
	x     *tensor.Matrix
	err   error
}

// trainShardedRank runs one rank of the sharded trainer. The seed
// derivations (model cfg.Seed+100 on every rank, sampler cfg.Seed+rank,
// epoch shuffle cfg.Seed+1000+rank) and the step loop mirror
// TrainDistributed exactly — that is the conformance contract, do not
// deviate without updating both.
func trainShardedRank(ds *datasets.Dataset, cfg ShardedTrainConfig, world *comm.World, rank int,
	owners []int32, shards [][]int32, maxBatches int) (*DistResult, error) {

	store, err := featstore.NewSharded(featstore.ShardedConfig{
		Rank: rank, Shards: cfg.NumRanks,
		Transport:  world.Transport(),
		Owners:     owners,
		Features:   ds.Features,
		CacheBytes: cfg.CacheBytes,
	})
	if err != nil {
		return nil, err
	}
	defer store.Close()

	mrng := rand.New(rand.NewSource(cfg.Seed + 100))
	m := newMBModel(ds.Features.Cols, cfg.Hidden, ds.NumClasses, cfg.NumLayers, mrng)
	sampler, err := NewSampler(ds.G, cfg.Fanouts, cfg.Seed+int64(rank))
	if err != nil {
		return nil, err
	}
	var opt nn.Optimizer
	if cfg.UseAdam {
		opt = nn.NewAdam(cfg.LR, 0)
	} else {
		opt = &nn.SGD{LR: cfg.LR}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(rank)))
	shard := append([]int32(nil), shards[rank]...)
	params := m.params()

	res := &DistResult{HaloStats: make([]featstore.ShardedStats, cfg.NumRanks)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		rng.Shuffle(len(shard), func(i, j int) { shard[i], shard[j] = shard[j], shard[i] })

		// The producer samples batches in step order (the sampler's RNG
		// stream is consumed sequentially — Sampler is not safe for
		// concurrent use) and issues each batch's halo fetch; with
		// prefetching the channel holds one ready batch, so the fetch for
		// step t+1 overlaps the compute of step t.
		depth := 1
		if cfg.NoPrefetch {
			depth = 0
		}
		batches := make(chan sampledBatch, depth)
		go func() {
			defer close(batches)
			for step := 0; step < maxBatches; step++ {
				var bw sampledBatch
				if off := step * cfg.BatchSize; off < len(shard) {
					end := off + cfg.BatchSize
					if end > len(shard) {
						end = len(shard)
					}
					bw.seeds = shard[off:end]
					bw.s = sampler.Sample(bw.seeds)
					frontier := bw.s.InputFrontier()
					bw.x, bw.err = store.GatherSplit(frontier,
						featstore.SplitByOwner(frontier, owners, cfg.NumRanks))
				}
				batches <- bw
				if bw.err != nil {
					return
				}
			}
		}()

		var localLoss float64
		var localWork int64
		var arTime time.Duration
		step := 0
		for bw := range batches {
			if bw.err != nil {
				return nil, bw.err
			}
			nn.ZeroGrads(params)
			var batchN int
			if bw.s != nil {
				logits := m.forward(bw.s, bw.x, nil, true)
				localLabels := make([]int32, len(bw.seeds))
				mask := make([]int32, len(bw.seeds))
				for i, g := range bw.seeds {
					localLabels[i] = ds.Labels[g]
					mask[i] = int32(i)
				}
				loss, dlogits := nn.MaskedCrossEntropy(logits, localLabels, mask)
				m.backward(dlogits)
				localLoss += loss * float64(len(bw.seeds))
				localWork += sampledWork(bw.s, m.dims)
				batchN = len(bw.seeds)
			}
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
			world.AllReduceSum(rank, gbuf)
			arTime += time.Since(arStart)
			nn.UnflattenParams(params, gbuf, true)
			opt.Step(params)
			step++
		}

		// Exchange the per-rank loss/work parts as exact bit patterns and
		// fold them in rank order — the same float64 summation order
		// TrainDistributed uses, so the reported loss matches bit for bit.
		parts := world.AllGather(rank, packLossWork(localLoss, localWork))
		st := DistEpochStat{Time: time.Since(start), Steps: maxBatches, AllReduce: arTime}
		var lsum float64
		for r := 0; r < cfg.NumRanks; r++ {
			loss, work := unpackLossWork(parts[4*r : 4*r+4])
			lsum += loss
			st.SampledWork += work
		}
		if len(ds.TrainIdx) > 0 {
			st.Loss = lsum / float64(len(ds.TrainIdx))
		}
		res.Epochs = append(res.Epochs, st)
	}
	res.Params = nn.FlattenParams(params, false)

	// Rank 0 evaluates through its sharded store (peers keep serving halo
	// fetches while blocked in the broadcast) and shares the accuracy.
	var acc float64
	if rank == 0 {
		acc, err = evaluateSharded(ds, sampler, m, cfg.BatchSize, store, owners, cfg.NumRanks)
		if err != nil {
			return nil, err
		}
	}
	accBits := packF64(acc)
	world.Broadcast(rank, 0, accBits)
	res.TestAcc = unpackF64(accBits)
	res.HaloStats[rank] = store.Stats()
	return res, nil
}

// evaluateSharded is evaluate with the feature reads going through the
// sharded store instead of a resident matrix.
func evaluateSharded(ds *datasets.Dataset, sampler *Sampler, m *mbModel, batch int,
	store *featstore.Sharded, owners []int32, ranks int) (float64, error) {
	if len(ds.TestIdx) == 0 {
		return 0, nil
	}
	correct := 0
	for off := 0; off < len(ds.TestIdx); off += batch {
		end := off + batch
		if end > len(ds.TestIdx) {
			end = len(ds.TestIdx)
		}
		seeds := ds.TestIdx[off:end]
		s := sampler.Sample(seeds)
		frontier := s.InputFrontier()
		x, err := store.GatherSplit(frontier, featstore.SplitByOwner(frontier, owners, ranks))
		if err != nil {
			return 0, err
		}
		logits := m.forward(s, x, nil, false)
		pred := make([]int, logits.Rows)
		logits.ArgmaxRows(pred)
		for i, g := range seeds {
			if int32(pred[i]) == ds.Labels[g] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(ds.TestIdx)), nil
}

// packF64/unpackF64 carry a float64 on the float32 collective lane as two
// exact bit-pattern words.
func packF64(v float64) []float32 {
	b := math.Float64bits(v)
	return []float32{
		math.Float32frombits(uint32(b)),
		math.Float32frombits(uint32(b >> 32)),
	}
}

func unpackF64(fs []float32) float64 {
	lo := uint64(math.Float32bits(fs[0]))
	hi := uint64(math.Float32bits(fs[1]))
	return math.Float64frombits(lo | hi<<32)
}

// packLossWork frames one rank's epoch contribution — float64 loss part and
// int64 sampled work — as four exact bit-pattern words for AllGather.
func packLossWork(loss float64, work int64) []float32 {
	return append(packF64(loss), packF64(math.Float64frombits(uint64(work)))...)
}

func unpackLossWork(fs []float32) (float64, int64) {
	return unpackF64(fs[:2]), int64(math.Float64bits(unpackF64(fs[2:4])))
}
