package spmm

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/tensor"
)

// randomBipartite builds a random block in minibatch.Block layout: numDst
// destinations drawing from a frontier of numSrc global vertices, every dst
// also present in the frontier (prefix convention) for the self term.
func randomBipartite(rng *rand.Rand, numDst, numSrc, maxDeg, numGlobal int) (frontier, indptr, indices, selfIdx []int32) {
	frontier = make([]int32, numSrc)
	seen := map[int32]bool{}
	for i := range frontier {
		for {
			g := int32(rng.Intn(numGlobal))
			if !seen[g] {
				seen[g] = true
				frontier[i] = g
				break
			}
		}
	}
	indptr = make([]int32, numDst+1)
	selfIdx = make([]int32, numDst)
	for i := 0; i < numDst; i++ {
		selfIdx[i] = int32(i) // dst ⊆ src prefix convention
		deg := rng.Intn(maxDeg + 1)
		for k := 0; k < deg; k++ {
			indices = append(indices, int32(rng.Intn(numSrc)))
		}
		indptr[i+1] = int32(len(indices))
	}
	return frontier, indptr, indices, selfIdx
}

// TestFusedGatherSumBitIdenticalToUnfused pins the fusion contract: for
// fp32 sources, streaming rows straight from the global store must produce
// byte-for-byte the output of materialize-the-gather-then-aggregate.
func TestFusedGatherSumBitIdenticalToUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const numGlobal, d = 300, 37 // d odd: exercises tile remainders downstream
	feats := tensor.New(numGlobal, d)
	for i := range feats.Data {
		feats.Data[i] = float32(rng.NormFloat64())
	}
	frontier, indptr, indices, selfIdx := randomBipartite(rng, 50, 120, 8, numGlobal)
	norm := make([]float32, 50)
	for i := range norm {
		norm[i] = 1 / float32(1+indptr[i+1]-indptr[i])
	}

	// Unfused reference: gather the frontier, then aggregate local rows.
	gathered := tensor.New(len(frontier), d)
	for i, g := range frontier {
		copy(gathered.Row(i), feats.Row(int(g)))
	}
	want := tensor.New(50, d)
	for i := 0; i < 50; i++ {
		dst := want.Row(i)
		for p := indptr[i]; p < indptr[i+1]; p++ {
			src := gathered.Row(int(indices[p]))
			for j := range dst {
				dst[j] += src[j]
			}
		}
		self := gathered.Row(int(selfIdx[i]))
		for j := range dst {
			dst[j] = (dst[j] + self[j]) * norm[i]
		}
	}

	got := tensor.New(50, d)
	if err := GatherAggGCNSum(got, feats, frontier, indptr, indices, selfIdx, norm); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("fused diverges from unfused at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestFusedGatherSumValidates(t *testing.T) {
	feats := tensor.New(4, 3)
	if err := GatherAggGCNSum(tensor.New(2, 3), feats, []int32{0}, []int32{0, 0}, nil, []int32{0}, []float32{1}); err == nil {
		t.Fatal("output shape mismatch must be rejected")
	}
}
