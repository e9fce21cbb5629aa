package main

import (
	"fmt"
	"math"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/minibatch"
	"distgnn/internal/model"
	"distgnn/internal/train"
)

// loadDataset generates the workload's dataset. The dataset is the same
// for every seed (the registry's generator seed); --seed varies what runs
// over it — the trainers' seeds, and the serving request streams.
func loadDataset(rc *runCtx) (*datasets.Dataset, error) {
	return datasets.Load(datasetName, rc.cfg.Scale)
}

// trainOutcome is what a training workload's timed phase produced.
type trainOutcome struct {
	epochS    float64 // steady-state epoch wall time
	setupS    float64
	jobS      float64 // wall time of one whole fixed-length run
	finalLoss float64
}

// report records the end-to-end metrics shared by both training
// workloads. The generic names let every workload print every end-to-end
// metric: for training, p50_ms is the steady-state epoch, tail_ms the
// whole fixed-length job and loss the training loss after the fixed epoch
// count.
func (o trainOutcome) report(rc *runCtx, heapMB float64) {
	rc.set("setup_s", o.setupS, "s")
	rc.set("heap_mb", heapMB, "MB")
	rc.set("p50_ms", o.epochS*1000, "ms")
	rc.set("tail_ms", o.jobS*1000, "ms")
	rc.set("loss", o.finalLoss, "nats")
	rc.set("success_rate", 1-float64(rc.res.Failed)/float64(max(rc.res.Attempted, 1)), "frac")
	fmt.Printf("final_loss_bits=%#016x final_loss=%.17g\n", math.Float64bits(o.finalLoss), o.finalLoss)
}

// checkLosses counts the epochs of one run and fails those whose loss is
// not finite. The run's final loss must also repeat bit for bit across
// repeats of the same fixed-length job (want, when non-nil).
func checkLosses(rc *runCtx, losses []float64, want *float64) error {
	var bad int64
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			bad++
		}
	}
	rc.count(int64(len(losses)), bad)
	if bad > 0 {
		return wrongf("%d of %d epochs had a non-finite loss", bad, len(losses))
	}
	final := losses[len(losses)-1]
	if want != nil && math.Float64bits(*want) != math.Float64bits(final) {
		rc.count(0, 1)
		return wrongf("final loss %v differs from an identical earlier run's %v", final, *want)
	}
	return nil
}

// fullbatchWorkers is the kernel pool size for train-fullbatch. Its four
// rank goroutines already keep both cores busy; a second pool worker under
// them adds no throughput and makes a job's wall time hang on scheduling
// (at scale 0.5, 41-epoch jobs of one seed took 11.3–14.2 s with 2
// workers and 12.7–13.5 s with 1, on a 2-core VM).
const fullbatchWorkers = 1

// fullbatchConfig is the train-fullbatch trainer configuration.
func fullbatchConfig(rc *runCtx, epochs int) train.DistConfig {
	c := rc.cfg
	return train.DistConfig{
		Model:         model.Config{Hidden: hidden, NumLayers: c.Layers, Seed: rc.seed},
		NumPartitions: c.Partitions, Algo: train.AlgoCDRS, Delay: c.Delay,
		Epochs: epochs, LR: trainLR, UseAdam: true, Seed: rc.seed, Workers: fullbatchWorkers,
	}
}

// runTrainFullbatch times full-batch cd-rs training. The trainer reports
// no per-epoch wall time, so the benchmark runs the same job at three
// epoch counts, repeatedly, rotating which goes first. cd-rs fills its
// delay pipeline first: roots reduce and send the first totals at epoch
// Delay, and leaves first apply them at epoch 2·Delay. EpochsLo is past
// the fill, so the slope of the median wall times between EpochsLo and
// EpochsHi is a steady-state epoch. Set-up (partitioning, rank state,
// final evaluation) is the intercept of the line through the 1-epoch and
// EpochsLo-epoch medians: it is extrapolated by one epoch only, so the
// noise of the longer jobs barely reaches it. The cheap 1-epoch job runs
// five times a round: set-up is a small difference of wall times, and
// more samples steady its median.
func runTrainFullbatch(rc *runCtx) error {
	c := rc.cfg
	if c.EpochsLo <= 2*c.Delay || c.EpochsHi <= c.EpochsLo {
		return fmt.Errorf("epochs_lo %d must exceed 2·delay = %d and epochs_hi %d must exceed it",
			c.EpochsLo, 2*c.Delay, c.EpochsHi)
	}
	ds, err := loadDataset(rc)
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	rc.started = time.Now()
	lengths := []int{1, c.EpochsLo, 1, 1, c.EpochsHi, 1, 1}
	walls := map[int][]float64{}
	var finalLoss *float64
	timed := func(epochs int) error {
		start := time.Now()
		res, err := train.Distributed(ds, fullbatchConfig(rc, epochs))
		if err != nil {
			return err
		}
		walls[epochs] = append(walls[epochs], time.Since(start).Seconds())
		losses := make([]float64, len(res.Epochs))
		for i, e := range res.Epochs {
			losses[i] = e.Loss
		}
		if epochs != c.EpochsHi {
			return checkLosses(rc, losses, nil)
		}
		if err := checkLosses(rc, losses, finalLoss); err != nil {
			return err
		}
		l := losses[len(losses)-1]
		finalLoss = &l
		return nil
	}
	rounds := 0
	for ; rounds == 0 || rc.remaining() > 0; rounds++ {
		for i := range lengths {
			if err := timed(lengths[(i+rounds)%len(lengths)]); err != nil {
				return err
			}
		}
	}
	heapMB := heap.stopMB()
	w1, lo, hi := median(walls[1]), median(walls[c.EpochsLo]), median(walls[c.EpochsHi])
	slope := (hi - lo) / float64(c.EpochsHi-c.EpochsLo)
	if slope <= 0 {
		return fmt.Errorf("non-positive epoch slope %.4fs from %d rounds", slope, rounds)
	}
	out := trainOutcome{
		epochS: slope, setupS: w1 - (lo-w1)/float64(c.EpochsLo-1),
		jobS: hi, finalLoss: *finalLoss,
	}
	rc.logf("train-fullbatch: %d rounds, epoch %.3fs, setup %.3fs, walls %v", rounds, out.epochS, out.setupS, walls)
	out.report(rc, heapMB)
	if rc.trace {
		return traceFullbatch(rc, ds, out.epochS)
	}
	return nil
}

// shardedConfig is the train-sharded trainer configuration.
func shardedConfig(rc *runCtx) minibatch.ShardedTrainConfig {
	c := rc.cfg
	return minibatch.ShardedTrainConfig{
		DistConfig: minibatch.DistConfig{
			Config: minibatch.Config{
				Hidden: hidden, NumLayers: c.Layers, Fanouts: c.Fanouts,
				BatchSize: c.BatchSize, Epochs: c.Epochs, LR: trainLR, UseAdam: true,
				Seed: rc.seed, Workers: kernelWorkers,
			},
			NumRanks: c.Ranks,
		},
		PartitionSeed: rc.seed,
		CacheBytes:    int64(c.HaloMB * (1 << 20)),
	}
}

// runTrainSharded times sharded mini-batch training: repeated fixed-length
// runs until the budget is spent. The epoch figure is the median of the
// trainer's own DistEpochStat.Time; set-up is the rest of each run's wall
// time (partitioning, rank state, final evaluation). The heap is sampled
// over the first heapRuns runs, a fixed count: each TrainSharded call leaves
// about 6 MB and two goroutines live after it returns, so over the whole
// budget heap_mb measured how many runs the machine fitted in (it read
// 38 MB when four runs fitted, 49 MB when seven did). Over a fixed count
// the leak still counts.
func runTrainSharded(rc *runCtx) error {
	const heapRuns = 4
	ds, err := loadDataset(rc)
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	rc.started = time.Now()
	var epochs, setups, jobs []float64
	var heapMB float64
	var finalLoss *float64
	var last *minibatch.DistResult
	for run := 0; run < heapRuns || rc.remaining() > 0; run++ {
		start := time.Now()
		res, err := minibatch.TrainSharded(ds, shardedConfig(rc))
		if err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		losses := make([]float64, len(res.Epochs))
		var inEpochs float64
		for i, e := range res.Epochs {
			losses[i] = e.Loss
			inEpochs += e.Time.Seconds()
			epochs = append(epochs, e.Time.Seconds())
		}
		if err := checkLosses(rc, losses, finalLoss); err != nil {
			return err
		}
		l := losses[len(losses)-1]
		finalLoss = &l
		setups = append(setups, wall-inEpochs)
		jobs = append(jobs, wall)
		last = res
		if run == heapRuns-1 {
			heapMB = heap.stopMB()
		}
	}
	out := trainOutcome{epochS: median(epochs), setupS: median(setups), jobS: median(jobs), finalLoss: *finalLoss}
	rc.logf("train-sharded: %d runs, epoch %.3fs, setup %.3fs", len(jobs), out.epochS, out.setupS)
	out.report(rc, heapMB)
	if rc.trace {
		return traceSharded(rc, ds, out.epochS, last)
	}
	return nil
}
