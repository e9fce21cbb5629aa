package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/featstore"
	"distgnn/internal/graph"
	"distgnn/internal/minibatch"
	"distgnn/internal/obs"
	"distgnn/internal/serve"
	"distgnn/internal/tensor"
)

// servetrace.go is the traced replay of the serving workloads, run on the
// live fleet after the end-to-end phases. For a sample of the workload's
// reads it re-runs one exact inference stage by stage from public
// functions — minibatch.FullSampleOwned on the current topology, a
// featstore.Sharded halo gather over loopback TCP, minibatch.AggregateGCN
// and the dense product with the served checkpoint's weights — and checks
// the logits bit for bit against Engine.Infer for the same seed, so the
// decomposition cannot drift from the code it decomposes. It then times
// the parts of a read the engine does not see: the HTTP/JSON round trip
// of an embedding-cache hit, and the coalescer wait under the reference
// rate's miss stream.
//
// A read's mean latency is modelled as
//
//	wait_ms + http_ms + miss × (queue_wait_ms + infer_ms)
//
// where wait_ms (loadgen.wait_ms) is the time a read waited for a free
// connection and miss = 1 − embed_hit_ratio, both from the reference
// phases; the rest of the measured mean is trace.unaccounted_frac.

// traceServing measures and records every per-layer metric of a serving
// workload.
func traceServing(sr *serveRun) error {
	rc := sr.rc
	c := rc.cfg
	pt, err := timePartition(rc, sr.ds, fleetShards, fleetPartitionSeed)
	if err != nil {
		return err
	}
	owners := pt.Owners()

	var topo graph.Topology = sr.ds.G
	if sr.updates {
		mut, insertMS, err := sr.finalGraph()
		if err != nil {
			return err
		}
		topo = mut.Snapshot()
		rc.set("graph.insert_ms", mean(insertMS), "ms")
		if err := traceWrites(sr); err != nil {
			return err
		}
	}

	// Reference-phase counters of the fleet itself.
	t := sr.refTotals
	miss := 1 - ratio(t.embHits, t.embHits+t.embMisses)
	rc.set("serve.embed_hit_ratio", 1-miss, "ratio")
	rc.set("serve.routed_frac", ratio(t.routed, t.predicts), "frac")
	rc.set("featstore.halo_rows", ratio(t.haloRows, t.predicts), "rows")
	rc.set("comm.halo_bytes", ratio(t.haloBytes, t.predicts), "bytes")
	rc.set("featstore.halo_hit_ratio", ratio(t.haloHits, t.haloHits+t.haloMisses), "ratio")
	rc.set("loadgen.late_p99_ms", quantile(sr.refLate, 0.99), "ms")
	rc.set("loadgen.wait_ms", mean(sr.refWait), "ms")

	// The replay's own halo stores, with the fleet's cache budget.
	fabric, err := comm.NewLoopbackTCP(fleetShards, comm.DefaultTCPTimeout)
	if err != nil {
		return err
	}
	defer func() {
		for _, tr := range fabric {
			tr.Close()
		}
	}()
	stores := make([]*featstore.Sharded, fleetShards)
	for r := range stores {
		st, err := featstore.NewSharded(featstore.ShardedConfig{
			Rank: r, Shards: fleetShards, Transport: fabric[r], Owners: owners,
			Features: sr.ds.Features, CacheBytes: int64(c.FeatureCacheMB * (1 << 20)),
		})
		if err != nil {
			return err
		}
		defer st.Close()
		stores[r] = st
	}

	L := c.Layers
	rng := rand.New(rand.NewSource(rc.seed + 7))
	sample := make([]int32, replayRequests)
	for i := range sample {
		sample[i] = sr.vertex()
	}
	var expand, gather, infer, frontier []float64
	agg := make([][]float64, L)
	dense := make([][]float64, L)
	for _, v := range sample {
		o := int(owners[v])
		eng := sr.fl.servers[o].Engine()
		weights := eng.Params()

		start := time.Now()
		s, split := minibatch.FullSampleOwned(topo, []int32{v}, L, owners, fleetShards)
		expand = append(expand, ms(time.Since(start)))
		frontier = append(frontier, float64(len(s.InputFrontier())))
		start = time.Now()
		h, err := stores[o].GatherSplit(s.InputFrontier(), split)
		if err != nil {
			return err
		}
		gather = append(gather, ms(time.Since(start)))
		for layer := 0; layer < L; layer++ {
			blk := s.Blocks[L-1-layer]
			start = time.Now()
			a := minibatch.AggregateGCN(blk, h, blk.Norms())
			agg[layer] = append(agg[layer], ms(time.Since(start)))
			w, b := weights[2*layer].W, weights[2*layer+1].W
			start = time.Now()
			h = tensor.New(a.Rows, w.Cols)
			tensor.MatMul(h, a, w)
			dense[layer] = append(dense[layer], ms(time.Since(start)))
			h.AddRowVector(b.Data)
			if layer < L-1 {
				for i, x := range h.Data {
					if !(x > 0) {
						h.Data[i] = 0
					}
				}
			}
		}

		start = time.Now()
		out, err := eng.Infer([]int32{v})
		if err != nil {
			return err
		}
		infer = append(infer, ms(time.Since(start)))
		rc.count(1, 0)
		if !sameBits(h.Row(0), out.Row(0)) {
			rc.count(0, 1)
			return wrongf("replay of vertex %d differs from Engine.Infer", v)
		}
		if sr.ref != nil && !sameBits(out.Row(0), sr.ref.Row(int(v))) {
			rc.count(0, 1)
			return wrongf("Engine.Infer for vertex %d differs from the full-graph Forward", v)
		}
	}
	rc.set("minibatch.expand_ms", mean(expand), "ms")
	rc.set("minibatch.frontier_rows", mean(frontier), "rows")
	rc.set("featstore.gather_ms", mean(gather), "ms")
	for l := 0; l < L; l++ {
		rc.set(fmt.Sprintf("spmm.agg_l%d_ms", l), mean(agg[l]), "ms")
		rc.set(fmt.Sprintf("tensor.dense_l%d_ms", l), mean(dense[l]), "ms")
	}
	inferMS := mean(infer)
	rc.set("serve.infer_ms", inferMS, "ms")

	httpMS, err := traceHTTP(sr, sample, rng)
	if err != nil {
		return err
	}
	rc.set("serve.http_ms", httpMS, "ms")
	waitMS, batch, err := traceCoalescer(sr, miss)
	if err != nil {
		return err
	}
	rc.set("serve.queue_wait_ms", waitMS, "ms")
	rc.set("serve.batch_size", batch, "count")

	model := mean(sr.refWait) + httpMS + miss*(waitMS+inferMS)
	rc.set("trace.unaccounted_frac", 1-model/mean(sr.refLat), "frac")
	return nil
}

// traceHTTP times the /predict round trip with inference skipped: each
// sampled vertex is asked once (which leaves its row in the owner's
// embedding cache) and then again through a random rank, and the second
// round trip is timed. Both answers are checked like any other read.
func traceHTTP(sr *serveRun, sample []int32, rng *rand.Rand) (float64, error) {
	var rtt []float64
	for _, v := range sample {
		addr := sr.fl.addrs[rng.Intn(len(sr.fl.addrs))]
		for pass := 0; pass < 2; pass++ {
			start := time.Now()
			body, err := predict(sr.client, addr, v, false)
			d := time.Since(start)
			sr.rc.count(1, 0)
			var logits []float32
			if err == nil {
				logits, err = decodePredict(body, v)
			}
			if err == nil {
				err = sr.checkRead(v, logits)
			}
			if err != nil {
				sr.rc.count(0, 1)
				return 0, err
			}
			if pass == 1 {
				rtt = append(rtt, ms(d))
			}
		}
	}
	return mean(rtt), nil
}

// traceCoalescer feeds a serve.NewCoalescer, configured like the fleet's
// and wrapped around a timed Engine.Infer, with one rank's share of the
// reference rate's misses, and returns the mean wait before a request's
// batch starts inferring and the mean batch size.
func traceCoalescer(sr *serveRun, miss float64) (waitMS, batchSize float64, err error) {
	c := sr.rc.cfg
	eng := sr.fl.servers[0].Engine()
	type batchRec struct {
		start time.Time
		seeds []int32
	}
	var mu sync.Mutex
	var batches []batchRec
	co := serve.NewCoalescer(func(vs []int32, _ *obs.TraceCtx) (*tensor.Matrix, error) {
		mu.Lock()
		batches = append(batches, batchRec{start: time.Now(), seeds: append([]int32(nil), vs...)})
		mu.Unlock()
		return eng.Infer(vs)
	}, maxBatch, maxWait, 0)
	defer co.Close()

	rate := c.RefRate * max(miss, 0.05) / float64(fleetShards)
	times := poissonTimes(sr.rng, max(100, int(2*rate)), rate)
	submitted := make([]time.Time, len(times))
	vertices := make([]int32, len(times))
	for i := range vertices {
		vertices[i] = sr.vertex()
	}
	errs := make([]error, len(times))
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(at)))
			submitted[i] = time.Now()
			_, errs[i] = co.Submit(context.Background(), vertices[i])
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	// A request's batch is the first one to start after its submission
	// that carries its vertex.
	sort.Slice(batches, func(i, j int) bool { return batches[i].start.Before(batches[j].start) })
	var waits []float64
	for i, t := range submitted {
		for _, b := range batches {
			if b.start.Before(t) {
				continue
			}
			found := false
			for _, s := range b.seeds {
				if s == vertices[i] {
					found = true
					break
				}
			}
			if found {
				waits = append(waits, ms(b.start.Sub(t)))
				break
			}
		}
	}
	return mean(waits), float64(len(times)) / float64(max(len(batches), 1)), nil
}

// traceWrites records the write-path figures of serve-mixed: /update
// round trips, invalidated cache rows per update, the fleet's compaction
// count, and the cost of one compaction of a threshold-sized overlay on a
// benchmark-owned graph.Mutable.
func traceWrites(sr *serveRun) error {
	rc := sr.rc
	rc.set("serve.update_p50_ms", quantile(sr.writeRTT, 0.5), "ms")
	rc.set("serve.update_p90_ms", quantile(sr.writeRTT, 0.9), "ms")
	rc.set("serve.invalidated_rows", ratio(sr.invalidated, int64(len(sr.applied))), "rows")
	if st := sr.fl.servers[0].StatsSnapshot().Stream; st != nil {
		rc.set("graph.compactions", float64(st.Compactions), "count")
	}
	var compact []float64
	for rep := 0; rep < traceReps; rep++ {
		mut := graph.NewMutable(sr.ds.G, -1)
		n := 0
		for _, b := range sr.applied {
			if n >= rc.cfg.CompactThreshold {
				break
			}
			if _, err := mut.Insert(b); err != nil {
				return err
			}
			n += len(b)
		}
		start := time.Now()
		mut.Compact()
		compact = append(compact, ms(time.Since(start)))
	}
	rc.set("graph.compact_ms", median(compact), "ms")
	return nil
}
