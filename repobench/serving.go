package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/graph"
	"distgnn/internal/serve"
	"distgnn/internal/tensor"
)

// serving.go runs the two serving workloads end to end: set-up of the
// fleet (repeated, median reported), warm-up, then reference-rate phases
// until the budget is spent. The traced run then binary-searches the fixed
// rate ladder for goodput before its replay. Every read answer is checked: on serve-read bit for bit
// against a full-graph Forward; on serve-mixed, where the graph changes
// under the reads, for shape and finiteness during the run and bit for bit
// on every rank against a Forward over the final graph once the write
// stream has drained.

// serveRun is one serving workload's live state.
type serveRun struct {
	rc      *runCtx
	ds      *datasets.Dataset
	ckpt    []byte
	ref     *tensor.Matrix // serve-read: full-graph reference logits
	updates bool
	client  *http.Client
	fl      *fleet
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int32 // Zipf rank → vertex

	// Writes applied by the fleet, in the order they were acknowledged.
	applied     [][]graph.Edge
	invalidated int64
	writeRTT    []float64

	// Reference-phase samples, pooled over the repeats.
	refLat, refWait, refLate []float64
	refTotals                totals
	served                   map[int32]float64 // vertex → cross-entropy of its answer
}

// vertex draws a read's vertex: Zipf-skewed popularity over a seeded
// permutation on serve-read, uniform on serve-mixed.
func (sr *serveRun) vertex() int32 {
	if sr.zipf != nil {
		return sr.perm[sr.zipf.Uint64()]
	}
	return int32(sr.rng.Intn(sr.ds.G.NumVertices))
}

// reads schedules n reads at the given offsets, each to a random rank.
func (sr *serveRun) reads(times []time.Duration) []op {
	ops := make([]op, len(times))
	for i, at := range times {
		ops[i] = op{at: at, kind: opRead, vertex: sr.vertex(), rank: sr.rng.Intn(fleetShards)}
	}
	return ops
}

// writes schedules an MMPP edge-insert stream from datasets.EdgeStream,
// grouped by datasets.Batched and rescaled to span [0, span), posted to
// rank 0. phase seeds the stream so every phase draws its own edges.
func (sr *serveRun) writes(span time.Duration, phase int64) ([]op, error) {
	c := sr.rc.cfg
	if !sr.updates || c.WriteEdgesPerSec <= 0 {
		return nil, nil
	}
	n := int(math.Round(c.WriteEdgesPerSec * span.Seconds()))
	if n < 1 {
		return nil, nil
	}
	events, err := datasets.EdgeStream(datasets.StreamConfig{
		NumVertices: sr.ds.G.NumVertices, Events: n, MeanRate: c.WriteEdgesPerSec,
		Seed: sr.rc.seed*1000 + phase,
	})
	if err != nil {
		return nil, err
	}
	scale := float64(span) / float64(events[len(events)-1].At)
	for i := range events {
		events[i].At = time.Duration(float64(events[i].At) * scale)
	}
	var ops []op
	for _, b := range datasets.Batched(events, c.WriteBatch, 20*time.Millisecond) {
		edges := make([][2]int32, len(b))
		for i, ev := range b {
			edges[i] = [2]int32{ev.Edge.Src, ev.Edge.Dst}
		}
		ops = append(ops, op{at: b[0].At, kind: opWrite, edges: edges})
	}
	return ops, nil
}

// send performs one scheduled operation against the fleet.
func (sr *serveRun) send(o op) ([]byte, error) {
	if o.kind == opWrite {
		return postUpdate(sr.client, sr.fl.addrs[0], o.edges)
	}
	return predict(sr.client, sr.fl.addrs[o.rank], o.vertex, false)
}

// play runs a schedule, checks every answer, counts the operations, and
// returns the phase's read figures. A wrong answer ends the run.
func (sr *serveRun) play(ops []op) (phaseStats, error) {
	res := runSchedule(ops, sr.send)
	var failed int64
	for i, r := range res {
		o := ops[i]
		if r.err != nil {
			failed++
			sr.rc.logf("%v", r.err)
			continue
		}
		if o.kind == opWrite {
			var ur serve.UpdateResponse
			if err := json.Unmarshal(r.body, &ur); err != nil || ur.Applied != len(o.edges) {
				sr.rc.count(1, 1)
				return phaseStats{}, wrongf("/update acknowledged %d of %d edges (%v)", ur.Applied, len(o.edges), err)
			}
			batch := make([]graph.Edge, len(o.edges))
			for j, e := range o.edges {
				batch[j] = graph.Edge{Src: e[0], Dst: e[1]}
			}
			sr.applied = append(sr.applied, batch)
			sr.invalidated += int64(ur.InvalidatedEmbeddings + ur.InvalidatedFeatures)
			continue
		}
		logits, err := decodePredict(r.body, o.vertex)
		if err == nil {
			err = sr.checkRead(o.vertex, logits)
		}
		if err != nil {
			sr.rc.count(1, 1)
			return phaseStats{}, wrongf("%v", err)
		}
	}
	sr.rc.count(int64(len(ops)), failed)
	ps := summarize(ops, res)
	sr.writeRTT = append(sr.writeRTT, ps.writeRTT...)
	return ps, nil
}

// checkRead checks one /predict answer. On serve-read it must equal the
// full-graph Forward bit for bit; on serve-mixed it must have the model's
// width and be finite (its exact value depends on which writes it saw).
func (sr *serveRun) checkRead(v int32, logits []float32) error {
	if sr.ref != nil {
		if !sameBits(logits, sr.ref.Row(int(v))) {
			return fmt.Errorf("vertex %d: logits differ from the full-graph Forward", v)
		}
	} else {
		if len(logits) != sr.ds.NumClasses {
			return fmt.Errorf("vertex %d: %d logits, want %d", v, len(logits), sr.ds.NumClasses)
		}
		for _, x := range logits {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return fmt.Errorf("vertex %d: non-finite logit", v)
			}
		}
	}
	sr.served[v] = crossEntropy(logits, sr.ds.Labels[v])
	return nil
}

// setup builds the fleet setupRepeats times and keeps the last one; the
// reported set-up is the median.
func (sr *serveRun) setup() (float64, error) {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if sr.fl != nil {
			sr.fl.close()
			sr.fl = nil
		}
		start := time.Now()
		fl, err := startFleet(sr.rc, sr.ds, sr.ckpt, sr.updates, sr.client)
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		sr.fl = fl
	}
	return median(secs), nil
}

// warmup sends closed-loop windows of reads until the embedding-cache hit
// ratio of a window stops climbing (or the request cap is reached).
// Nothing here is timed. A window is large enough that its hit ratio's
// sampling error (about 0.01) does not end the warm-up early.
func (sr *serveRun) warmup() error {
	const window = 2000
	prev := -1.0
	for sent := 0; sent < sr.rc.cfg.WarmupMax; sent += window {
		before := sr.fl.totals()
		if _, err := sr.play(sr.reads(make([]time.Duration, window))); err != nil {
			return err
		}
		d := sr.fl.totals().minus(before)
		hit := ratio(d.embHits, d.embHits+d.embMisses)
		if hit-prev < 0.01 {
			sr.rc.logf("warm-up: %d reads, embedding hit ratio %.3f", sent+window, hit)
			return nil
		}
		prev = hit
	}
	sr.rc.logf("warm-up: request cap reached, embedding hit ratio %.3f", prev)
	return nil
}

// rungPlays is how many times a rung may be played: a rung passes when a
// majority of its plays pass. One play is short enough that a transient
// stall of the machine can fail it on its own.
const rungPlays = 3

// rung decides one ladder rung by majority over plays of rungRequests
// reads at rate (plus the write stream on serve-mixed). A play passes when
// no read failed, the read p99 meets the limit, and the backlog did not
// grow: the median of the last fifth of the play also meets the limit.
func (sr *serveRun) rung(rate float64, phase int64) (bool, error) {
	c := sr.rc.cfg
	passes, fails := 0, 0
	for play := int64(0); passes <= rungPlays/2 && fails <= rungPlays/2; play++ {
		times := poissonTimes(sr.rng, rungRequests, rate)
		w, err := sr.writes(times[len(times)-1], 10*phase+play)
		if err != nil {
			return false, err
		}
		ps, err := sr.play(mergeOps(sr.reads(times), w))
		if err != nil {
			return false, err
		}
		ok := ps.failed == 0 && ps.p99 <= c.LimitP99MS && ps.tailP50 <= c.LimitP99MS
		if ok {
			passes++
		} else {
			fails++
		}
		sr.rc.logf("rung %.0f rps: p50 %.2fms p99 %.2fms failed %d pass=%v",
			rate, quantile(ps.lat, 0.5), ps.p99, ps.failed, ok)
	}
	return passes > fails, nil
}

// goodput binary-searches the fixed ladder for the highest rung that
// passes. It is 0 when even the lowest rung fails: no rate of the ladder
// was sustained.
func (sr *serveRun) goodput() (float64, error) {
	ladder := sr.rc.cfg.Ladder
	lo, hi := -1, len(ladder)
	phase := int64(100)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		phase++
		ok, err := sr.rung(ladder[mid], phase)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		sr.rc.logf("goodput: even the lowest rung (%.0f rps) misses the limit", ladder[0])
		return 0, nil
	}
	return ladder[lo], nil
}

// windowed returns the median over consecutive windows of refWindow
// samples of each window's q-quantile: a transient stall of the machine
// then moves one window, not the figure.
func windowed(xs []float64, q float64) float64 {
	var per []float64
	for lo := 0; lo+refWindow <= len(xs); lo += refWindow {
		per = append(per, quantile(xs[lo:lo+refWindow], q))
	}
	if len(per) == 0 {
		return quantile(xs, q)
	}
	return median(per)
}

// refWindow is the reference-phase window: p99 of 1000 reads has ten
// samples beyond it.
const refWindow = 1000

// bestWindow returns the lowest, over consecutive windows of tailWindow
// samples, of each window's q-quantile. Other tenants of a shared machine
// only ever add latency, and they add most in the tail: on a 2-core VM,
// while p50 moved 6–11% between runs of the same code, the read p90 moved
// 17–32% with the median over windows and 7–11% with the lowest window
// (ten seeds each, serve-mixed). A change to the program moves every
// window, the lowest too.
func bestWindow(xs []float64, q float64) float64 {
	best := math.Inf(1)
	for lo := 0; lo+tailWindow <= len(xs); lo += tailWindow {
		best = math.Min(best, quantile(xs[lo:lo+tailWindow], q))
	}
	if math.IsInf(best, 1) {
		return quantile(xs, q)
	}
	return best
}

// tailWindow is the window bestWindow takes the tail over: 400 reads,
// about 2.7 s of serve-mixed, so every window spans at least two
// compactions and the write stream's bursts, and p90 has forty samples
// beyond it.
const tailWindow = 400

// reference plays reference-rate phases until the measurement budget is
// spent (at least one), pooling their read samples. A failed read is
// counted by play and fails the run.
func (sr *serveRun) reference() error {
	c := sr.rc.cfg
	n := int(c.RefRate * c.RefSeconds)
	before := sr.fl.totals()
	for rep := 0; rep == 0 || sr.rc.remaining() > 0; rep++ {
		times := poissonTimes(sr.rng, n, c.RefRate)
		w, err := sr.writes(times[len(times)-1], int64(rep))
		if err != nil {
			return err
		}
		ps, err := sr.play(mergeOps(sr.reads(times), w))
		if err != nil {
			return err
		}
		sr.refLat = append(sr.refLat, ps.lat...)
		sr.refWait = append(sr.refWait, ps.wait...)
		sr.refLate = append(sr.refLate, ps.late...)
	}
	sr.refTotals = sr.fl.totals().minus(before)
	return nil
}

// newServeRun generates the inputs (dataset, checkpoint, vertex
// distribution) from the seed.
func newServeRun(rc *runCtx, updates bool) (*serveRun, error) {
	ds, err := loadDataset(rc)
	if err != nil {
		return nil, err
	}
	ckpt, err := checkpoint(rc, ds)
	if err != nil {
		return nil, err
	}
	sr := &serveRun{
		rc: rc, ds: ds, ckpt: ckpt, updates: updates, client: newClient(),
		rng: rand.New(rand.NewSource(rc.seed)), served: map[int32]float64{},
	}
	if !updates {
		if sr.ref, err = referenceLogits(rc, ds, ds.G, ckpt); err != nil {
			return nil, err
		}
	}
	if rc.cfg.Zipf > 0 {
		prng := rand.New(rand.NewSource(rc.seed + 1))
		sr.perm = make([]int32, ds.G.NumVertices)
		for i, p := range prng.Perm(ds.G.NumVertices) {
			sr.perm[i] = int32(p)
		}
		sr.zipf = rand.NewZipf(rand.New(rand.NewSource(rc.seed+2)), rc.cfg.Zipf, 1, uint64(ds.G.NumVertices-1))
	}
	return sr, nil
}

// runServing is the shared body of both serving workloads.
func runServing(rc *runCtx, updates bool) error {
	sr, err := newServeRun(rc, updates)
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	setupS, err := sr.setup()
	if err != nil {
		heap.stopMB()
		return err
	}
	defer func() {
		if sr.fl != nil {
			sr.fl.close()
		}
	}()
	err = sr.warmup()
	rc.started = time.Now()
	if err == nil {
		err = sr.reference()
	}
	heapMB := heap.stopMB()
	if err != nil {
		return err
	}
	// The traced run searches the ladder before the final-graph check, so
	// the check also covers the ladder's writes.
	var good float64
	if rc.trace {
		if good, err = sr.goodput(); err != nil {
			return err
		}
	}
	if updates {
		if err := sr.checkFinalGraph(); err != nil {
			return err
		}
	}
	var ce []float64
	for _, l := range sr.served {
		ce = append(ce, l)
	}
	rc.set("setup_s", setupS, "s")
	rc.set("heap_mb", heapMB, "MB")
	rc.set("p50_ms", windowed(sr.refLat, 0.5), "ms")
	rc.set("tail_ms", bestWindow(sr.refLat, 0.9), "ms")
	rc.set("loss", mean(ce), "nats")
	rc.set("success_rate", 1-float64(rc.res.Failed)/float64(max(rc.res.Attempted, 1)), "frac")
	rc.logf("setup %.3fs, %d reference reads, p50 %.3fms p90 %.3fms (lowest window %.3fms) p99 %.3fms",
		setupS, len(sr.refLat), windowed(sr.refLat, 0.5), windowed(sr.refLat, 0.9), bestWindow(sr.refLat, 0.9), windowed(sr.refLat, 0.99))
	if !rc.trace {
		return nil
	}
	rc.set("loadgen.goodput_rps", good, "1/s")
	rc.set("loadgen.read_p99_ms", windowed(sr.refLat, 0.99), "ms")
	return traceServing(sr)
}

func runServeRead(rc *runCtx) error  { return runServing(rc, false) }
func runServeMixed(rc *runCtx) error { return runServing(rc, true) }

// finalGraph replays the acknowledged write batches into a benchmark-owned
// graph.Mutable with the fleet's compaction threshold, timing each insert,
// and returns it once background compactions have finished.
func (sr *serveRun) finalGraph() (*graph.Mutable, []float64, error) {
	mut := graph.NewMutable(sr.ds.G, sr.rc.cfg.CompactThreshold)
	var insertMS []float64
	for _, b := range sr.applied {
		start := time.Now()
		if _, err := mut.Insert(b); err != nil {
			return nil, nil, err
		}
		insertMS = append(insertMS, ms(time.Since(start)))
	}
	mut.Wait()
	return mut, insertMS, nil
}

// checkFinalGraph checks, once the stream has drained, a fixed vertex
// sample on every rank — each rank answering with its own engine — against
// a full-graph Forward over Snapshot.Rebuild() of the final graph.
func (sr *serveRun) checkFinalGraph() error {
	mut, _, err := sr.finalGraph()
	if err != nil {
		return err
	}
	ref, err := referenceLogits(sr.rc, sr.ds, mut.Snapshot().Rebuild(), sr.ckpt)
	if err != nil {
		return err
	}
	sr.ref = ref
	rng := rand.New(rand.NewSource(sr.rc.seed + 3))
	for i := 0; i < checkVertices; i++ {
		v := int32(rng.Intn(sr.ds.G.NumVertices))
		for r, addr := range sr.fl.addrs {
			body, err := predict(sr.client, addr, v, true)
			var logits []float32
			if err == nil {
				logits, err = decodePredict(body, v)
			}
			if err == nil && !sameBits(logits, ref.Row(int(v))) {
				err = wrongf("rank %d vertex %d: logits differ from a Forward over the rebuilt final graph", r, v)
			}
			sr.rc.count(1, 0)
			if err != nil {
				sr.rc.count(0, 1)
				return err
			}
		}
	}
	return nil
}
