package serve

import (
	"bytes"
	"testing"

	"distgnn/internal/nn"
)

// TestFusedExactBitIdenticalToGatheredExact pins the serving-side fusion
// contract: with the feature cache disabled the engine takes the fused
// gather→aggregate path, and its logits are bit-identical to both the
// cache-enabled gathered path and a direct full-graph Forward.
func TestFusedExactBitIdenticalToGatheredExact(t *testing.T) {
	ds, m, ckpt := trainedSageCheckpoint(t, 16, 2)
	full := m.Forward(ds.Features, false)

	fused, err := NewEngine(ds, ModelSpec{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fused.fusedExact() {
		t.Fatal("cache-disabled exact GraphSAGE engine must take the fused path")
	}
	gathered, err := NewEngine(ds, ModelSpec{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if gathered.fusedExact() {
		t.Fatal("cache-enabled engine must keep the gathered path (cache hits need the matrix)")
	}
	for _, e := range []*Engine{fused, gathered} {
		if err := nn.ReadParams(bytes.NewReader(ckpt), e.Params()); err != nil {
			t.Fatal(err)
		}
	}

	batch := []int32{0, 3, 9, 42, int32(ds.G.NumVertices - 1), 3}
	outF, err := fused.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	outG, err := gathered.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range batch {
		bitsEqual(t, outF.Row(i), outG.Row(i), "fused vs gathered")
		bitsEqual(t, outF.Row(i), full.Row(int(v)), "fused vs full Forward")
	}

	// The frontier counter must advance on the fused path even though no
	// gathered matrix exists to count rows of.
	if got := fused.Stats().InputFrontierVertices; got <= 0 {
		t.Fatalf("fused path did not count frontier vertices: %d", got)
	}
}
