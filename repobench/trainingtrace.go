package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/minibatch"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/partition"
	"distgnn/internal/tensor"
	"distgnn/internal/train"
)

// trainingtrace.go is the traced replay of the two training workloads: the
// per-epoch work of every rank, re-run layer by layer through the
// layers' public functions and timed from here. As in the trainers, every
// rank runs on its own goroutine at the same time, so each stage is timed
// under the contention it meets in a real epoch; a stage's figure is the
// mean over ranks of its time per epoch. The sum of the stages is set
// against the end-to-end epoch of the same run as trace.unaccounted_frac.

// traceReps is how many times a replayed epoch is repeated; per-layer
// figures are medians over the repeats.
const traceReps = 3

// stageClock accumulates one rank's stage times.
type stageClock map[string]time.Duration

// onRanks runs fn for every rank concurrently and returns, per stage, the
// mean over ranks of the time the ranks recorded, in ms.
func onRanks(k int, fn func(rank int, clk stageClock)) map[string]float64 {
	clocks := make([]stageClock, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		clocks[r] = stageClock{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(r, clocks[r])
		}()
	}
	wg.Wait()
	out := map[string]float64{}
	for _, clk := range clocks {
		for stage, d := range clk {
			out[stage] += ms(d) / float64(k)
		}
	}
	return out
}

// medianStages records the median over repeats of every stage (in ms), and
// returns their sum.
func medianStages(rc *runCtx, reps []map[string]float64) float64 {
	var sum float64
	for stage := range reps[0] {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, r[stage])
		}
		m := median(xs)
		rc.set(stage, m, "ms")
		sum += m
	}
	return sum
}

// timePartition times partition.Partition with Libra, the partitioner
// both trainers and the serving fleet use, and records its figures.
func timePartition(rc *runCtx, ds *datasets.Dataset, k int, seed int64) (*partition.Partitioning, error) {
	var secs []float64
	var pt *partition.Partitioning
	for i := 0; i < traceReps; i++ {
		start := time.Now()
		p, err := partition.Partition(ds.G, partition.Libra{Seed: seed}, k, seed)
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		pt = p
	}
	rc.set("partition.partition_s", median(secs), "s")
	rc.set("partition.replication", pt.ReplicationFactor(), "ratio")
	return pt, nil
}

// denseTimes times the dense layers at the given shapes: the forward
// product agg·W per layer, and the backward pair (aggᵀ·dY and dY·Wᵀ)
// summed over layers, with the forward output standing in for dY.
func denseTimes(aggs, weights []*tensor.Matrix) (fwd []time.Duration, bwd time.Duration) {
	fwd = make([]time.Duration, len(aggs))
	for l, a := range aggs {
		w := weights[l]
		y := tensor.New(a.Rows, w.Cols)
		start := time.Now()
		tensor.MatMul(y, a, w)
		fwd[l] = time.Since(start)
		dw := tensor.New(w.Rows, w.Cols)
		dx := tensor.New(a.Rows, a.Cols)
		start = time.Now()
		tensor.MatMulTransA(dw, a, y)
		tensor.MatMulTransB(dx, y, w)
		bwd += time.Since(start)
	}
	return fwd, bwd
}

// localFeatures gathers a partition's feature rows by global ID.
func localFeatures(ds *datasets.Dataset, part *partition.Part) *tensor.Matrix {
	x := tensor.New(part.NumLocal(), ds.Features.Cols)
	for l, g := range part.GlobalID {
		copy(x.Row(l), ds.Features.Row(int(g)))
	}
	return x
}

// exchangeBin is one DRPA bin of cd-rs's partial-aggregate traffic for
// one layer: send[rank] is the AlltoAllV argument of phase A (each
// non-root clone of a split vertex sends its partial row to the root);
// phase B mirrors it (the root returns the total).
type exchangeBin struct {
	sendA, sendB [][][]float32
	bytes        float64
}

// exchangePlan lays out every delay bin × layer of the split-vertex
// exchange of a real partitioning. Split vertices are spread over the
// delay bins and one bin is exchanged per epoch.
func exchangePlan(pt *partition.Partitioning, delay int, widths []int) [][]exchangeBin {
	k := pt.K
	plan := make([][]exchangeBin, delay)
	for bin := range plan {
		rows := make([][]int, k) // rows[src][dst]: phase-A rows leaf src → root dst
		for i := range rows {
			rows[i] = make([]int, k)
		}
		for i, sv := range pt.Splits {
			if i%delay != bin {
				continue
			}
			root := sv.Clones[0].Part
			for _, cl := range sv.Clones[1:] {
				rows[cl.Part][root]++
			}
		}
		for _, width := range widths {
			eb := exchangeBin{sendA: make([][][]float32, k), sendB: make([][][]float32, k)}
			for r := 0; r < k; r++ {
				eb.sendA[r] = make([][]float32, k)
				eb.sendB[r] = make([][]float32, k)
			}
			for src := 0; src < k; src++ {
				for dst := 0; dst < k; dst++ {
					n := rows[src][dst] * width
					eb.sendA[src][dst] = make([]float32, n)
					eb.sendB[dst][src] = make([]float32, n)
					eb.bytes += 8 * float64(n) // both phases
				}
			}
			plan[bin] = append(plan[bin], eb)
		}
	}
	return plan
}

// traceFullbatch replays cd-rs epochs of every rank concurrently:
// per-layer aggregation (GraphSAGE.Forward/Backward AggTime over the
// rank's part.G), the dense products at the layer shapes, the DRPA
// exchange of every delay bin (divided by the delay: one bin per epoch),
// the gradient AllReduce of NumParams floats, and the optimizer step.
func traceFullbatch(rc *runCtx, ds *datasets.Dataset, epochS float64) error {
	c := rc.cfg
	k := c.Partitions
	pt, err := timePartition(rc, ds, k, rc.seed)
	if err != nil {
		return err
	}
	L := c.Layers
	type rankState struct {
		m      *model.GraphSAGE
		x      *tensor.Matrix
		labels []int32
		mask   []int32
		opt    *nn.Adam
		grads  []float32
	}
	ranks := make([]rankState, k)
	for r, part := range pt.Parts {
		m, err := model.New(part.G, model.Config{
			InDim: ds.Features.Cols, Hidden: hidden, OutDim: ds.NumClasses,
			NumLayers: L, Seed: rc.seed,
		}, nil)
		if err != nil {
			return err
		}
		labels := make([]int32, part.NumLocal())
		mask := make([]int32, part.NumLocal())
		for l, g := range part.GlobalID {
			labels[l] = ds.Labels[g]
			mask[l] = int32(l)
		}
		ranks[r] = rankState{m: m, x: localFeatures(ds, part), labels: labels, mask: mask,
			opt: nn.NewAdam(trainLR, 0), grads: make([]float32, m.NumParams())}
	}
	widths := make([]int, L)
	for l := range widths {
		widths[l] = hidden
	}
	widths[0] = ds.Features.Cols
	plan := exchangePlan(pt, c.Delay, widths)
	var exchBytes float64
	for _, bin := range plan {
		for _, eb := range bin {
			exchBytes += eb.bytes
		}
	}
	world := comm.NewWorld(k)

	var reps []map[string]float64
	for rep := 0; rep < traceReps; rep++ {
		reps = append(reps, onRanks(k, func(rank int, clk stageClock) {
			rk := ranks[rank]
			m := rk.m
			aggs := make([]*tensor.Matrix, L)
			var prev time.Duration
			m.ResetAggTime()
			m.FwdHook = func(l int, agg *tensor.Matrix) {
				clk[fmt.Sprintf("spmm.agg_l%d_ms", l)] += m.AggTime - prev
				prev = m.AggTime
				aggs[l] = agg.Clone()
			}
			logits := m.Forward(rk.x, true)
			m.FwdHook = nil
			_, dlogits := nn.MaskedCrossEntropy(logits, rk.labels, rk.mask)
			nn.ZeroGrads(m.Params())
			m.ResetAggTime()
			m.Backward(dlogits)
			clk["spmm.agg_bwd_ms"] += m.AggTime

			weights := make([]*tensor.Matrix, L)
			for l := range weights {
				weights[l] = m.Params()[2*l].W
			}
			fwd, bwd := denseTimes(aggs, weights)
			for l, d := range fwd {
				clk[fmt.Sprintf("tensor.dense_l%d_ms", l)] += d
			}
			clk["tensor.dense_bwd_ms"] += bwd

			start := time.Now()
			for _, bin := range plan {
				for _, eb := range bin {
					world.AlltoAllV(rank, eb.sendA[rank])
					world.AlltoAllV(rank, eb.sendB[rank])
				}
			}
			clk["comm.exchange_ms"] += time.Since(start) / time.Duration(c.Delay)

			start = time.Now()
			world.AllReduceSum(rank, rk.grads)
			clk["comm.allreduce_ms"] += time.Since(start)

			start = time.Now()
			rk.opt.Step(m.Params())
			clk["nn.optim_ms"] += time.Since(start)
		}))
	}
	stageMS := medianStages(rc, reps)
	rc.set("comm.exchange_bytes", exchBytes/float64(c.Delay), "bytes")

	single, err := train.SingleSocket(ds, train.SingleConfig{
		Model:  model.Config{Hidden: hidden, NumLayers: L, Seed: rc.seed},
		Epochs: traceReps, LR: trainLR, UseAdam: true, Workers: kernelWorkers,
	})
	if err != nil {
		return err
	}
	var singleS []float64
	for _, e := range single.Epochs {
		singleS = append(singleS, e.Total.Seconds())
	}
	rc.set("train.single_epoch_s", median(singleS), "s")
	rc.set("trace.unaccounted_frac", 1-stageMS/(epochS*1000), "frac")
	return nil
}

// traceSharded replays epochs of sharded mini-batch training with both
// ranks concurrent: Sampler.Sample per batch, the halo gather through a
// pair of featstore.Sharded stores with the trainer's cache budget, the
// block aggregation and dense products per layer, the per-step
// World.AllReduceSum of the parameter count, and the optimizer step. The
// replay fetches inline, where the trainer prefetches the next batch while
// the current one computes, so what the prefetch hides shows as a negative
// trace.unaccounted_frac. Halo traffic is the trainer's own count
// (DistResult.HaloStats of the last timed run).
func traceSharded(rc *runCtx, ds *datasets.Dataset, epochS float64, last *minibatch.DistResult) error {
	c := rc.cfg
	k := c.Ranks
	pt, err := timePartition(rc, ds, k, rc.seed)
	if err != nil {
		return err
	}
	owners := pt.Owners()
	fabric := comm.NewProcTransport(k)
	defer fabric.Close()
	stores := make([]*featstore.Sharded, k)
	for r := range stores {
		st, err := featstore.NewSharded(featstore.ShardedConfig{
			Rank: r, Shards: k, Transport: fabric, Owners: owners,
			Features: ds.Features, CacheBytes: int64(c.HaloMB * (1 << 20)),
		})
		if err != nil {
			return err
		}
		defer st.Close()
		stores[r] = st
	}

	// The trainer's sharding: one seeded shuffle, round-robin over ranks,
	// then a per-rank shuffle each epoch.
	shuffled := append([]int32(nil), ds.TrainIdx...)
	rand.New(rand.NewSource(rc.seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	shards := make([][]int32, k)
	for i, v := range shuffled {
		shards[i%k] = append(shards[i%k], v)
	}
	steps := (len(shards[0]) + c.BatchSize - 1) / c.BatchSize

	L := c.Layers
	type rankState struct {
		sampler *minibatch.Sampler
		shuffle *rand.Rand
		weights []*tensor.Matrix
		params  []*nn.Param
		opt     *nn.Adam
		grads   []float32
	}
	ranks := make([]rankState, k)
	for r := range ranks {
		sampler, err := minibatch.NewSampler(ds.G, c.Fanouts, rc.seed+int64(r))
		if err != nil {
			return err
		}
		mrng := rand.New(rand.NewSource(rc.seed + 100))
		rs := rankState{sampler: sampler, shuffle: rand.New(rand.NewSource(rc.seed + 1000 + int64(r))),
			opt: nn.NewAdam(trainLR, 0)}
		in := ds.Features.Cols
		for l := 0; l < L; l++ {
			out := hidden
			if l == L-1 {
				out = ds.NumClasses
			}
			lin := nn.NewLinear(fmt.Sprintf("replay%d", l), in, out, true, mrng)
			rs.weights = append(rs.weights, lin.Weight.W)
			rs.params = append(rs.params, lin.Params()...)
			in = out
		}
		rs.grads = make([]float32, nn.TotalElements(rs.params))
		ranks[r] = rs
	}
	world := comm.NewWorld(k)

	var reps []map[string]float64
	var replayErr error
	var errMu sync.Mutex
	for rep := 0; rep < traceReps; rep++ {
		reps = append(reps, onRanks(k, func(rank int, clk stageClock) {
			rs := ranks[rank]
			shard := append([]int32(nil), shards[rank]...)
			rs.shuffle.Shuffle(len(shard), func(i, j int) { shard[i], shard[j] = shard[j], shard[i] })
			for step := 0; step < steps; step++ {
				if off := step * c.BatchSize; off < len(shard) {
					seeds := shard[off:min(off+c.BatchSize, len(shard))]
					start := time.Now()
					s := rs.sampler.Sample(seeds)
					clk["minibatch.sample_ms"] += time.Since(start)
					frontier := s.InputFrontier()
					start = time.Now()
					x, err := stores[rank].GatherSplit(frontier, featstore.SplitByOwner(frontier, owners, k))
					clk["featstore.gather_ms"] += time.Since(start)
					if err != nil {
						errMu.Lock()
						replayErr = err
						errMu.Unlock()
						x = tensor.New(len(frontier), ds.Features.Cols)
					}
					aggs := make([]*tensor.Matrix, L)
					h := x
					for layer := 0; layer < L; layer++ {
						blk := s.Blocks[L-1-layer]
						start = time.Now()
						aggs[layer] = minibatch.AggregateGCN(blk, h, blk.Norms())
						clk[fmt.Sprintf("spmm.agg_l%d_ms", layer)] += time.Since(start)
						h = tensor.New(aggs[layer].Rows, rs.weights[layer].Cols)
						tensor.MatMul(h, aggs[layer], rs.weights[layer])
					}
					fwd, bwd := denseTimes(aggs, rs.weights)
					for l, d := range fwd {
						clk[fmt.Sprintf("tensor.dense_l%d_ms", l)] += d
					}
					clk["tensor.dense_bwd_ms"] += bwd
				}
				start := time.Now()
				world.AllReduceSum(rank, rs.grads)
				clk["comm.allreduce_ms"] += time.Since(start)
				start = time.Now()
				rs.opt.Step(rs.params)
				clk["nn.optim_ms"] += time.Since(start)
			}
		}))
	}
	if replayErr != nil {
		return replayErr
	}
	stageMS := medianStages(rc, reps)

	// Halo traffic as the trainer itself counted it, per rank and epoch.
	var hs featstore.ShardedStats
	for _, s := range last.HaloStats {
		hs.HaloHits += s.HaloHits
		hs.HaloMisses += s.HaloMisses
		hs.HaloFetchedVertices += s.HaloFetchedVertices
		hs.HaloFetchedBytes += s.HaloFetchedBytes
	}
	perRankEpoch := float64(k * len(last.Epochs))
	rc.set("featstore.halo_rows", float64(hs.HaloFetchedVertices)/perRankEpoch, "rows")
	rc.set("featstore.halo_hit_ratio", hs.HaloHitRate(), "ratio")
	rc.set("comm.halo_bytes", float64(hs.HaloFetchedBytes)/perRankEpoch, "bytes")
	rc.set("trace.unaccounted_frac", 1-stageMS/(epochS*1000), "frac")
	return nil
}
