package minibatch

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/tensor"
)

// TestForwardFusedMatchesUnfusedGather pins the trainer-level fusion
// contract: a forward pass through the fused layer-0 kernel must produce
// byte-for-byte the logits of gathering the input frontier into a matrix
// and aggregating with AggregateGCN.
func TestForwardFusedMatchesUnfusedGather(t *testing.T) {
	ds := testDS(t)
	sampler, err := NewSampler(ds.G, []int{6, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := sampler.Sample(ds.TrainIdx[:40])
	frontier := s.InputFrontier()

	// Reference: materialize the gather, then run the same layer stack with
	// the unfused block aggregate for every layer.
	x := tensor.New(len(frontier), ds.Features.Cols)
	for i, g := range frontier {
		copy(x.Row(i), ds.Features.Row(int(g)))
	}
	m := newMBModel(ds.Features.Cols, 8, ds.NumClasses, 2, rand.New(rand.NewSource(5)))
	var want *tensor.Matrix
	{
		h := x
		for l := len(s.Blocks) - 1; l >= 0; l-- {
			layer := len(s.Blocks) - 1 - l
			blk := s.Blocks[l]
			agg := AggregateGCN(blk, h, blk.Norms())
			h = m.layers[layer].Forward(agg, false)
			if m.relus[layer] != nil {
				h = m.relus[layer].Forward(h, false)
			}
		}
		want = h
	}

	got := m.forward(s, ds.Features, frontier, false)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d vs %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("fused forward diverges at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}
