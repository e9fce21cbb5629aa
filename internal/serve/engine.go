// Package serve is the online inference layer on top of a trained DistGNN
// checkpoint: it answers "what is the prediction/embedding for vertex v"
// over HTTP with production-shaped mechanics — request coalescing into
// micro-batches and a concurrent byte-budgeted feature/embedding cache (the
// paper's cache-reuse insight, promoted from the internal/cachesim
// simulator into a real serving data structure).
//
// The engine extracts per-request k-hop computation blocks with
// internal/minibatch's sampler/block machinery. In exact mode
// (full-neighborhood blocks) the per-vertex activations are bit-identical
// to a full-graph Forward of the training-time model: block aggregation
// follows the CSR neighbor order the unblocked spmm kernel uses, the dense
// layers run through the same tensor kernels, and batch composition never
// changes a row's float-op sequence. That makes serving results independent
// of batching and caching — the property the serve tests pin.
package serve

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/graph"
	"distgnn/internal/minibatch"
	"distgnn/internal/nn"
	"distgnn/internal/obs"
	"distgnn/internal/tensor"
)

// Arch names a servable model family.
type Arch string

const (
	// ArchGraphSAGE serves checkpoints written by the full-batch GraphSAGE
	// trainer (GCN aggregator).
	ArchGraphSAGE Arch = "graphsage"
	// ArchGAT serves multi-head graph-attention checkpoints.
	ArchGAT Arch = "gat"
)

// ModelSpec describes the architecture a checkpoint must match. The zero
// values of InDim/OutDim are filled from the dataset.
type ModelSpec struct {
	Arch      Arch
	InDim     int
	Hidden    int
	OutDim    int
	NumLayers int
	// NumHeads is the GAT attention head count (ignored for GraphSAGE).
	NumHeads int
	// LeakySlope is GAT's LeakyReLU negative slope; defaults to 0.2 to
	// match model.NewGAT.
	LeakySlope float64
}

func (s ModelSpec) String() string {
	if s.Arch == ArchGAT {
		return fmt.Sprintf("gat(in=%d hidden=%d out=%d layers=%d heads=%d)",
			s.InDim, s.Hidden, s.OutDim, s.NumLayers, s.NumHeads)
	}
	return fmt.Sprintf("graphsage(in=%d hidden=%d out=%d layers=%d)",
		s.InDim, s.Hidden, s.OutDim, s.NumLayers)
}

// sageServeLayer is one forward-only GraphSAGE layer: y = agg·W + b.
type sageServeLayer struct {
	w, b *tensor.Matrix
	last bool
}

// gatServeHead is one forward-only attention head.
type gatServeHead struct {
	w, attL, attR *tensor.Matrix
}

type gatServeLayer struct {
	heads []*gatServeHead
	last  bool
}

// EngineStats are the engine-level counters surfaced in /stats.
type EngineStats struct {
	// Inferences counts engine invocations (one per micro-batch).
	Inferences int64 `json:"inferences"`
	// SeedVertices counts vertices inferred across all invocations.
	SeedVertices int64 `json:"seed_vertices"`
	// InputFrontierVertices counts outermost-frontier vertices gathered —
	// the feature-fetch volume batching and dedup amortize.
	InputFrontierVertices int64 `json:"input_frontier_vertices"`
}

// featureSource materializes the raw input features for a block's
// outermost frontier — the one stage of exact inference whose data may not
// be resident in this process. The single-process engine reads the full
// feature matrix (featstore.Local); the sharded engine reads its owned
// slice and fetches halo rows from their owner ranks (featstore.Sharded via
// shardFeatures, shard.go). Everything downstream of the gather is
// identical either way, which is what keeps sharded exact-mode logits
// bit-identical to single-process ones. featstore.Source satisfies it.
type featureSource interface {
	Gather(frontier []int32) (*tensor.Matrix, error)
}

// exactSampler lets a featureSource own exact-mode block extraction when it
// can exploit partition structure: shardFeatures uses the partition-aware
// minibatch.FullSampleOwned, so the input frontier arrives already split by
// owner and the split is computed exactly once per request. tc (nil when
// untraced) receives the stage spans the source can attribute.
type exactSampler interface {
	sampleExact(topo graph.Topology, seeds []int32, hops int, tc *obs.TraceCtx) (*minibatch.Sample, *tensor.Matrix, error)
}

// Engine runs forward-only inference over k-hop blocks. It is safe for
// concurrent use: the dense and aggregation passes touch only request-local
// state, and the sampled-mode RNG is guarded by a mutex.
type Engine struct {
	ds      *datasets.Dataset
	spec    ModelSpec
	fanouts []int // nil → exact full-neighborhood mode
	params  []*nn.Param
	sage    []*sageServeLayer
	gat     []*gatServeLayer
	feat    *Cache[int32, []float32]
	src     featureSource
	// mut, when non-nil, is the graph mutation layer (Config.EnableUpdates):
	// each request loads one epoch-versioned Snapshot and extracts its
	// blocks against that consistent view. Nil = frozen graph, identical
	// behavior to before the mutation plane existed.
	mut *graph.Mutable

	samplerMu sync.Mutex
	sampler   *minibatch.Sampler

	inferences   atomic.Int64
	seedVertices atomic.Int64
	frontierIn   atomic.Int64
}

// NewEngine builds the forward-only parameter set for spec, validates it
// against ds, and prepares the block extractor. fanouts selects sampled
// inference (len must equal NumLayers); nil or empty selects exact
// full-neighborhood inference. featureCacheBytes > 0 enables the gathered-
// feature cache.
func NewEngine(ds *datasets.Dataset, spec ModelSpec, fanouts []int, featureCacheBytes int64) (*Engine, error) {
	if spec.InDim == 0 {
		spec.InDim = ds.Features.Cols
	}
	if spec.OutDim == 0 {
		spec.OutDim = ds.NumClasses
	}
	if spec.NumLayers < 1 {
		return nil, fmt.Errorf("serve: NumLayers must be ≥1, got %d", spec.NumLayers)
	}
	if spec.InDim != ds.Features.Cols {
		return nil, fmt.Errorf("serve: model InDim %d != dataset feature width %d", spec.InDim, ds.Features.Cols)
	}
	if spec.InDim <= 0 || spec.OutDim <= 0 || (spec.NumLayers > 1 && spec.Hidden <= 0) {
		return nil, fmt.Errorf("serve: dimensions must be positive (in=%d hidden=%d out=%d)",
			spec.InDim, spec.Hidden, spec.OutDim)
	}
	e := &Engine{
		ds:   ds,
		spec: spec,
		feat: NewCache[int32, []float32](featureCacheBytes, 0),
	}
	e.src = featstore.NewLocal(ds.Features, e.feat)
	switch spec.Arch {
	case ArchGraphSAGE:
		e.buildSage()
	case ArchGAT:
		if e.spec.NumHeads == 0 {
			e.spec.NumHeads = 1
		}
		if e.spec.NumHeads < 1 {
			return nil, fmt.Errorf("serve: GAT NumHeads must be ≥1")
		}
		if e.spec.OutDim%e.spec.NumHeads != 0 || (spec.NumLayers > 1 && e.spec.Hidden%e.spec.NumHeads != 0) {
			return nil, fmt.Errorf("serve: GAT widths (hidden %d, out %d) must be divisible by NumHeads %d"+
				" — pass the padded output width the checkpoint was trained with via OutDim/-out-dim",
				e.spec.Hidden, e.spec.OutDim, e.spec.NumHeads)
		}
		if e.spec.LeakySlope == 0 {
			e.spec.LeakySlope = 0.2
		}
		e.buildGAT()
	default:
		return nil, fmt.Errorf("serve: unknown arch %q (graphsage or gat)", spec.Arch)
	}
	if len(fanouts) > 0 {
		if len(fanouts) != spec.NumLayers {
			return nil, fmt.Errorf("serve: %d fanouts for %d layers", len(fanouts), spec.NumLayers)
		}
		s, err := minibatch.NewSampler(ds.G, fanouts, 1)
		if err != nil {
			return nil, err
		}
		e.sampler = s
		e.fanouts = append([]int(nil), fanouts...)
	}
	return e, nil
}

// buildSage allocates parameters with the training-time names and shapes
// ("sage<l>.weight"/"sage<l>.bias", in model.Params() order) so
// nn.ReadParams accepts exactly the checkpoints distgnn-train writes.
func (e *Engine) buildSage() {
	for l := 0; l < e.spec.NumLayers; l++ {
		in, out := e.layerDims(l)
		w := nn.NewParam(fmt.Sprintf("sage%d.weight", l), in, out)
		b := nn.NewParam(fmt.Sprintf("sage%d.bias", l), 1, out)
		e.params = append(e.params, w, b)
		e.sage = append(e.sage, &sageServeLayer{w: w.W, b: b.W, last: l == e.spec.NumLayers-1})
	}
}

// buildGAT mirrors model.NewGAT's parameter naming and order: per layer,
// per head — linear weight, attL, attR.
func (e *Engine) buildGAT() {
	for l := 0; l < e.spec.NumLayers; l++ {
		in, out := e.layerDims(l)
		headOut := out / e.spec.NumHeads
		gl := &gatServeLayer{last: l == e.spec.NumLayers-1}
		for h := 0; h < e.spec.NumHeads; h++ {
			w := nn.NewParam(fmt.Sprintf("gat%d.h%d.weight", l, h), in, headOut)
			attL := nn.NewParam(fmt.Sprintf("gat%d.h%d.attL", l, h), 1, headOut)
			attR := nn.NewParam(fmt.Sprintf("gat%d.h%d.attR", l, h), 1, headOut)
			e.params = append(e.params, w, attL, attR)
			gl.heads = append(gl.heads, &gatServeHead{w: w.W, attL: attL.W, attR: attR.W})
		}
		e.gat = append(e.gat, gl)
	}
}

func (e *Engine) layerDims(l int) (in, out int) {
	in, out = e.spec.Hidden, e.spec.Hidden
	if l == 0 {
		in = e.spec.InDim
	}
	if l == e.spec.NumLayers-1 {
		out = e.spec.OutDim
	}
	return in, out
}

// Params returns the engine's parameter list in checkpoint order.
func (e *Engine) Params() []*nn.Param { return e.params }

// Spec returns the resolved model spec.
func (e *Engine) Spec() ModelSpec { return e.spec }

// Exact reports whether the engine runs full-neighborhood inference.
func (e *Engine) Exact() bool { return e.sampler == nil }

// Mode describes the block-extraction mode for logs and /stats.
func (e *Engine) Mode() string {
	if e.Exact() {
		return "exact"
	}
	parts := make([]string, len(e.fanouts))
	for i, f := range e.fanouts {
		parts[i] = fmt.Sprint(f)
	}
	return "sampled(" + strings.Join(parts, ",") + ")"
}

// FeatureCacheStats snapshots the gathered-feature cache counters.
func (e *Engine) FeatureCacheStats() CacheStats { return e.feat.Stats() }

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Inferences:            e.inferences.Load(),
		SeedVertices:          e.seedVertices.Load(),
		InputFrontierVertices: e.frontierIn.Load(),
	}
}

// topo returns the per-request topology view: the current mutation
// snapshot when updates are enabled, the frozen dataset CSR otherwise.
func (e *Engine) topo() graph.Topology {
	if e.mut != nil {
		return e.mut.Snapshot()
	}
	return e.ds.G
}

// invalidateFeatures drops the given vertices from the gathered-feature
// cache and returns how many were resident — the feature leg of the
// mutation plane's targeted invalidation.
func (e *Engine) invalidateFeatures(ids []int32) int {
	n := 0
	for _, v := range ids {
		if e.feat.Remove(v) {
			n++
		}
	}
	return n
}

// Infer runs forward-only inference for the seed vertices and returns the
// final-layer output matrix, one row per seed in input order. Duplicate
// seeds are allowed (each gets its own row).
func (e *Engine) Infer(seeds []int32) (*tensor.Matrix, error) {
	return e.InferTraced(seeds, nil)
}

// InferTraced is Infer with per-stage observability: a non-nil tc gets
// sample/gather/forward spans (plus per-peer halo RTT spans in shard mode),
// and its trace ID rides the halo fetch frames. Tracing only observes — the
// returned bits are identical to Infer's.
func (e *Engine) InferTraced(seeds []int32, tc *obs.TraceCtx) (*tensor.Matrix, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("serve: empty seed set")
	}
	// One topology load per request: every block of this inference is
	// extracted against the same snapshot even if updates land mid-flight.
	topo := e.topo()
	for _, v := range seeds {
		if v < 0 || int(v) >= topo.NumV() {
			return nil, fmt.Errorf("serve: vertex %d out of range [0,%d)", v, topo.NumV())
		}
	}
	var s *minibatch.Sample
	var x *tensor.Matrix
	var rows []int32 // non-nil: x is the resident store, rows the input frontier
	var err error
	switch {
	case e.sampler != nil:
		stop := tc.StartSpan("sample")
		e.samplerMu.Lock()
		s = e.sampler.Sample(seeds)
		e.samplerMu.Unlock()
		stop()
		stop = tc.StartSpan("gather")
		x, err = e.src.Gather(s.InputFrontier())
		stop()
	case e.fusedExact():
		// GraphSAGE exact mode over the resident store with no feature
		// cache: skip the gather entirely — the fused kernel streams
		// frontier rows straight from the dataset matrix, bit-identical to
		// the gathered path.
		stop := tc.StartSpan("sample")
		s = minibatch.FullSample(topo, seeds, e.spec.NumLayers)
		stop()
		x, rows = e.ds.Features, s.InputFrontier()
	default:
		if es, ok := e.src.(exactSampler); ok {
			s, x, err = es.sampleExact(topo, seeds, e.spec.NumLayers, tc)
			break
		}
		stop := tc.StartSpan("sample")
		s = minibatch.FullSample(topo, seeds, e.spec.NumLayers)
		stop()
		stop = tc.StartSpan("gather")
		x, err = e.src.Gather(s.InputFrontier())
		stop()
	}
	if err != nil {
		return nil, err
	}

	e.inferences.Add(1)
	e.seedVertices.Add(int64(len(seeds)))
	e.frontierIn.Add(int64(len(s.InputFrontier())))

	stop := tc.StartSpan("forward")
	var out *tensor.Matrix
	if e.spec.Arch == ArchGAT {
		out = e.forwardGAT(s, x)
	} else {
		out = e.forwardSage(s, x, rows)
	}
	stop()
	return out, nil
}

// fusedExact reports whether this request shape can take the fused
// gather→aggregate path: exact GraphSAGE over the in-process store, with
// the feature cache disabled (a populated cache changes nothing bitwise,
// but serving its hits requires materializing the gather, so the fused
// path only engages when there is no cache to consult).
func (e *Engine) fusedExact() bool {
	if e.spec.Arch != ArchGraphSAGE || e.feat != nil {
		return false
	}
	_, sharded := e.src.(exactSampler)
	return !sharded
}

// forwardSage runs the GCN-aggregator GraphSAGE layers over the sampled or
// exact blocks. x is the layer-0 input: with rows nil it is the gathered
// input-frontier matrix; otherwise it is the resident feature store and
// rows maps the input frontier into it, so the outermost layer's gather and
// aggregation run fused. The two are bit-identical, and the float-op order
// per output row matches the full-batch model's Forward exactly (see
// package comment).
func (e *Engine) forwardSage(s *minibatch.Sample, x *tensor.Matrix, rows []int32) *tensor.Matrix {
	h := x
	for l := len(s.Blocks) - 1; l >= 0; l-- {
		layer := len(s.Blocks) - 1 - l
		blk := s.Blocks[l]
		var agg *tensor.Matrix
		if layer == 0 && rows != nil {
			agg = minibatch.AggregateGCNFrom(blk, x, rows)
		} else {
			agg = minibatch.AggregateGCN(blk, h, blk.Norms())
		}
		h = e.sageApply(layer, agg)
	}
	return h
}

// sageApply runs one dense GraphSAGE layer: y = agg·W + b, ReLU between
// layers (nn.ReLU semantics: keep v when v > 0, else exactly +0).
func (e *Engine) sageApply(layer int, agg *tensor.Matrix) *tensor.Matrix {
	sl := e.sage[layer]
	y := tensor.New(agg.Rows, sl.w.Cols)
	tensor.MatMul(y, agg, sl.w)
	y.AddRowVector(sl.b.Data)
	if !sl.last {
		for i, v := range y.Data {
			if !(v > 0) {
				y.Data[i] = 0
			}
		}
	}
	return y
}

// forwardGAT runs the attention layers over the blocks, replicating the
// full-graph model's per-destination op order: SDDMM add, LeakyReLU,
// max-stabilized edge softmax (float64 exponent sum), weighted aggregation.
func (e *Engine) forwardGAT(s *minibatch.Sample, x *tensor.Matrix) *tensor.Matrix {
	h := x
	for l := len(s.Blocks) - 1; l >= 0; l-- {
		layer := len(s.Blocks) - 1 - l
		blk := s.Blocks[l]
		gl := e.gat[layer]
		headOut := gl.heads[0].w.Cols
		out := tensor.New(blk.NumDst, headOut*len(gl.heads))
		for hi, head := range gl.heads {
			z := tensor.New(h.Rows, headOut)
			tensor.MatMul(z, h, head.w)
			sProj := projectRows(z, head.attL.Data)
			tProj := projectRows(z, head.attR.Data)
			alpha := edgeAttention(blk, sProj, tProj, float32(e.spec.LeakySlope))
			aggregateWeightedBlock(blk, z, alpha, out, hi*headOut)
		}
		if !gl.last {
			// model.GAT's inter-layer ReLU: negatives to +0, else untouched.
			for i, v := range out.Data {
				if v < 0 {
					out.Data[i] = 0
				}
			}
		}
		h = out
	}
	return h
}

// projectRows returns the per-row dot products z·a (model.GAT's project).
func projectRows(z *tensor.Matrix, a []float32) []float32 {
	out := make([]float32, z.Rows)
	for v := 0; v < z.Rows; v++ {
		row := z.Row(v)
		var sum float32
		for j, w := range a {
			sum += row[j] * w
		}
		out[v] = sum
	}
	return out
}

// edgeAttention computes per-block-edge softmax attention: for each dst i
// over its block edges in order, e_p = LeakyReLU(s[src_p] + t[self_i]),
// normalized with the max-stabilized float64-sum softmax spmm.EdgeSoftmax
// uses, so exact-mode scores are bit-identical to the full-graph model.
func edgeAttention(blk *minibatch.Block, sProj, tProj []float32, slope float32) []float32 {
	alpha := make([]float32, len(blk.Indices))
	for i := 0; i < blk.NumDst; i++ {
		lo, hi := int(blk.Indptr[i]), int(blk.Indptr[i+1])
		if lo == hi {
			continue
		}
		tv := tProj[blk.SelfIdx[i]]
		for p := lo; p < hi; p++ {
			v := sProj[blk.Indices[p]] + tv
			if v < 0 {
				v *= slope
			}
			alpha[p] = v
		}
		maxV := alpha[lo]
		for p := lo + 1; p < hi; p++ {
			if alpha[p] > maxV {
				maxV = alpha[p]
			}
		}
		var sum float64
		for p := lo; p < hi; p++ {
			ex := expf(float64(alpha[p] - maxV))
			alpha[p] = float32(ex)
			sum += ex
		}
		inv := float32(1 / sum)
		for p := lo; p < hi; p++ {
			alpha[p] *= inv
		}
	}
	return alpha
}

// aggregateWeightedBlock writes Σ_p α_p·z[src_p] into out's column band
// [j0, j0+z.Cols) per destination, skipping zero weights exactly as
// spmm.AggregateWeighted does.
func aggregateWeightedBlock(blk *minibatch.Block, z *tensor.Matrix, alpha []float32, out *tensor.Matrix, j0 int) {
	w := z.Cols
	for i := 0; i < blk.NumDst; i++ {
		dst := out.Row(i)[j0 : j0+w]
		lo, hi := int(blk.Indptr[i]), int(blk.Indptr[i+1])
		for p := lo; p < hi; p++ {
			a := alpha[p]
			if a == 0 {
				continue
			}
			src := z.Row(int(blk.Indices[p]))
			for j := range dst {
				dst[j] += a * src[j]
			}
		}
	}
}

// expf mirrors spmm's overflow-guarded exponent helper bit for bit.
func expf(x float64) float64 {
	if x < -80 {
		return 0
	}
	return math.Exp(x)
}
