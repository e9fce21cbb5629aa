package minibatch

import (
	"fmt"
	"math/rand"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/nn"
	"distgnn/internal/parallel"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// Config configures mini-batch GraphSAGE training (the Dist-DGL analogue).
type Config struct {
	Hidden    int
	NumLayers int // must equal len(Fanouts)
	Fanouts   []int
	BatchSize int
	Epochs    int
	LR        float64
	UseAdam   bool
	Seed      int64
	// Workers sizes the process-wide kernel worker pool for this run — the
	// OMP_NUM_THREADS knob. 0 keeps the current pool.
	Workers int
}

// EpochStat is one mini-batch epoch: loss averaged over batches, wall time,
// and the sampled aggregation work (Table 7's "Total work" column, in
// edge-feature element updates).
type EpochStat struct {
	Loss        float64
	Time        time.Duration
	SampledWork int64
	NumBatches  int
}

// Result is the outcome of a mini-batch training run.
type Result struct {
	Epochs  []EpochStat
	TestAcc float64
}

// AvgEpochTime averages epoch wall time over all epochs.
func (r *Result) AvgEpochTime() time.Duration {
	if len(r.Epochs) == 0 {
		return 0
	}
	var total time.Duration
	for _, e := range r.Epochs {
		total += e.Time
	}
	return total / time.Duration(len(r.Epochs))
}

// model is a GraphSAGE over sampled blocks: per layer, mean-style GCN
// aggregation of sampled neighbors plus self, normalized by
// 1/(1+sampled degree), then Linear (+ReLU between layers).
type mbModel struct {
	layers []*nn.Linear
	relus  []*nn.ReLU
	dims   []int // aggregate input width per layer

	// blocks caches the sample's blocks per layer for backward.
	blocks []*Block
}

func newMBModel(inDim, hidden, outDim, numLayers int, rng *rand.Rand) *mbModel {
	m := &mbModel{}
	in := inDim
	for l := 0; l < numLayers; l++ {
		out := hidden
		if l == numLayers-1 {
			out = outDim
		}
		m.layers = append(m.layers, nn.NewLinear(fmt.Sprintf("mb%d", l), in, out, true, rng))
		if l != numLayers-1 {
			m.relus = append(m.relus, &nn.ReLU{})
		} else {
			m.relus = append(m.relus, nil)
		}
		m.dims = append(m.dims, in)
		in = out
	}
	return m
}

func (m *mbModel) params() []*nn.Param {
	var out []*nn.Param
	for _, l := range m.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// AggregateGCN computes the normalized GCN block aggregate:
// out[i] = (Σ_p x[Indices[p]] + x[SelfIdx[i]]) · dstNorm[i], summing block
// neighbors in index order. Shared between the mini-batch trainer (with
// sampled-degree norms) and the serving engine's block inference; the
// float-op order — neighbor sum, then self add, then norm scale, each
// element sequentially — matches the full-batch GraphSAGE forward so exact
// (full-neighborhood) blocks yield bit-identical activations.
func AggregateGCN(b *Block, x *tensor.Matrix, dstNorm []float32) *tensor.Matrix {
	d := x.Cols
	out := tensor.New(b.NumDst, d)
	for i := 0; i < b.NumDst; i++ {
		dst := out.Row(i)
		lo, hi := b.Indptr[i], b.Indptr[i+1]
		for p := lo; p < hi; p++ {
			src := x.Row(int(b.Indices[p]))
			for j := range dst {
				dst[j] += src[j]
			}
		}
		self := x.Row(int(b.SelfIdx[i]))
		norm := dstNorm[i]
		for j := range dst {
			dst[j] = (dst[j] + self[j]) * norm
		}
	}
	return out
}

// aggregateBlockBackward scatters the normalized gradient back to the src
// frontier: the transpose of AggregateGCN under sampled-degree norms.
func aggregateBlockBackward(b *Block, dAgg *tensor.Matrix, numSrc int) *tensor.Matrix {
	d := dAgg.Cols
	dx := tensor.New(numSrc, d)
	for i := 0; i < b.NumDst; i++ {
		lo, hi := b.Indptr[i], b.Indptr[i+1]
		norm := 1 / float32(1+hi-lo)
		g := dAgg.Row(i)
		for p := lo; p < hi; p++ {
			dst := dx.Row(int(b.Indices[p]))
			for j := range dst {
				dst[j] += g[j] * norm
			}
		}
		self := dx.Row(int(b.SelfIdx[i]))
		for j := range self {
			self[j] += g[j] * norm
		}
	}
	return dx
}

// AggregateGCNFrom is AggregateGCN fused with the frontier gather: it
// streams rows straight out of the global feature store via
// spmm.GatherAggGCNSum instead of first materializing the |frontier|×d
// gathered matrix. The float-op order is exactly gather-then-AggregateGCN,
// so results are bit-identical to the unfused path.
func AggregateGCNFrom(b *Block, feats *tensor.Matrix, frontier []int32) *tensor.Matrix {
	out := tensor.New(b.NumDst, feats.Cols)
	if err := spmm.GatherAggGCNSum(out, feats, frontier, b.Indptr, b.Indices, b.SelfIdx, b.Norms()); err != nil {
		// Block invariants come from the sampler; a shape mismatch here is a
		// programming error, not a runtime condition.
		panic("minibatch: " + err.Error())
	}
	return out
}

// forward runs the sampled layers from the outermost frontier inward and
// returns logits for the seed vertices. x is the layer-0 input. With a
// non-nil rows, x is a resident feature store and rows maps the input
// frontier to its rows: the outermost layer aggregates straight from it
// through the fused gather→aggregate kernel. With rows nil, x is already
// gathered in frontier order (the sharded trainer's path, where the gather
// crossed the comm fabric). The two are bit-identical: AggregateGCN over
// the gathered matrix is exactly the unfused form of AggregateGCNFrom.
func (m *mbModel) forward(s *Sample, x *tensor.Matrix, rows []int32, training bool) *tensor.Matrix {
	m.blocks = m.blocks[:0]
	h := x
	for l := len(s.Blocks) - 1; l >= 0; l-- {
		layer := len(s.Blocks) - 1 - l
		blk := s.Blocks[l]
		m.blocks = append(m.blocks, blk)
		var agg *tensor.Matrix
		if layer == 0 && rows != nil {
			agg = AggregateGCNFrom(blk, x, rows)
		} else {
			agg = AggregateGCN(blk, h, blk.Norms())
		}
		h = m.layers[layer].Forward(agg, training)
		if m.relus[layer] != nil {
			h = m.relus[layer].Forward(h, training)
		}
	}
	return h
}

// backward propagates the seed-logit gradient back through all layers.
func (m *mbModel) backward(dlogits *tensor.Matrix) {
	dy := dlogits
	for layer := len(m.layers) - 1; layer >= 0; layer-- {
		if m.relus[layer] != nil {
			dy = m.relus[layer].Backward(dy)
		}
		dAgg := m.layers[layer].Backward(dy)
		blk := m.blocks[layer]
		dy = aggregateBlockBackward(blk, dAgg, blk.NumSrc)
	}
}

// Train runs mini-batch training over ds and reports per-epoch stats —
// the Dist-DGL arm of Table 9.
func Train(ds *datasets.Dataset, cfg Config) (*Result, error) {
	if cfg.NumLayers != len(cfg.Fanouts) {
		return nil, fmt.Errorf("minibatch: NumLayers %d != len(Fanouts) %d", cfg.NumLayers, len(cfg.Fanouts))
	}
	if cfg.BatchSize < 1 || cfg.Epochs < 1 {
		return nil, fmt.Errorf("minibatch: BatchSize and Epochs must be positive")
	}
	if cfg.Workers > 0 {
		parallel.Configure(parallel.Config{Workers: cfg.Workers})
	}
	sampler, err := NewSampler(ds.G, cfg.Fanouts, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	m := newMBModel(ds.Features.Cols, cfg.Hidden, ds.NumClasses, cfg.NumLayers, rng)
	var opt nn.Optimizer
	if cfg.UseAdam {
		opt = nn.NewAdam(cfg.LR, 0)
	} else {
		opt = &nn.SGD{LR: cfg.LR}
	}
	params := m.params()

	res := &Result{}
	train := append([]int32(nil), ds.TrainIdx...)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
		var st EpochStat
		for off := 0; off < len(train); off += cfg.BatchSize {
			end := off + cfg.BatchSize
			if end > len(train) {
				end = len(train)
			}
			seeds := train[off:end]
			s := sampler.Sample(seeds)
			logits := m.forward(s, ds.Features, s.InputFrontier(), true)

			localLabels := make([]int32, len(seeds))
			mask := make([]int32, len(seeds))
			for i, g := range seeds {
				localLabels[i] = ds.Labels[g]
				mask[i] = int32(i)
			}
			loss, dlogits := nn.MaskedCrossEntropy(logits, localLabels, mask)
			nn.ZeroGrads(params)
			m.backward(dlogits)
			opt.Step(params)

			st.Loss += loss
			st.NumBatches++
			st.SampledWork += sampledWork(s, m.dims)
		}
		if st.NumBatches > 0 {
			st.Loss /= float64(st.NumBatches)
		}
		st.Time = time.Since(start)
		res.Epochs = append(res.Epochs, st)
	}

	res.TestAcc = evaluate(ds, sampler, m, cfg.BatchSize)
	return res, nil
}

// sampledWork counts aggregation element updates per hop: sampled edges ×
// the feature width entering that layer (Table 7's accounting).
func sampledWork(s *Sample, dims []int) int64 {
	var total int64
	for l, blk := range s.Blocks {
		total += int64(blk.NumSampledEdges()+blk.NumDst) * int64(dims[len(s.Blocks)-1-l])
	}
	return total
}

// evaluate scores test vertices with sampled inference (same fan-outs).
func evaluate(ds *datasets.Dataset, sampler *Sampler, m *mbModel, batch int) float64 {
	if len(ds.TestIdx) == 0 {
		return 0
	}
	correct := 0
	for off := 0; off < len(ds.TestIdx); off += batch {
		end := off + batch
		if end > len(ds.TestIdx) {
			end = len(ds.TestIdx)
		}
		seeds := ds.TestIdx[off:end]
		s := sampler.Sample(seeds)
		logits := m.forward(s, ds.Features, s.InputFrontier(), false)
		pred := make([]int, logits.Rows)
		logits.ArgmaxRows(pred)
		for i, g := range seeds {
			if int32(pred[i]) == ds.Labels[g] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(ds.TestIdx))
}
