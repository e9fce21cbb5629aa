package spmm

import (
	"fmt"

	"distgnn/internal/parallel"
	"distgnn/internal/tensor"
)

// GatherAggGCNSum is the fused gather→aggregate kernel for the copylhs/sum
// GNN hot path over one bipartite block: for every destination i,
//
//	out[i] = (Σ_p feats[frontier[indices[p]]] + feats[frontier[selfIdx[i]]]) · norm[i]
//
// summing block neighbors in index order. It streams source rows straight
// out of the global feature store — no materialized |frontier|×d gathered
// matrix is ever built, removing the gather's write+read traffic and its
// allocation from the per-frontier pass. For fp32 sources the float-op
// order per output element is exactly the gather-then-aggregate order, so
// results are bit-identical to the unfused path (the property the serving
// bit-identity pins rely on).
//
// indptr/indices/selfIdx are the bipartite block arrays (minibatch.Block's
// layout): indices and selfIdx hold frontier-local IDs, frontier maps them
// to rows of feats. out must be NumDst×feats.Cols, zeroed or not — rows
// are overwritten.
func GatherAggGCNSum(out, feats *tensor.Matrix, frontier []int32,
	indptr, indices, selfIdx []int32, norm []float32) error {
	d := feats.Cols
	numDst := len(indptr) - 1
	if out.Rows != numDst || out.Cols != d {
		return fmt.Errorf("spmm: fused output %dx%d, want %dx%d", out.Rows, out.Cols, numDst, d)
	}
	if len(norm) != numDst || len(selfIdx) != numDst {
		return fmt.Errorf("spmm: fused norm/self length %d/%d, want %d", len(norm), len(selfIdx), numDst)
	}
	// Translate block-local IDs to global feature rows once, up front: the
	// inner loops then pay one indirection per edge (the same addressing as
	// an aggregate over a gathered matrix) instead of two. Same rows in the
	// same order — no float op moves.
	gIdx := fusedIdxScratch.Get(len(indices) + numDst)
	defer fusedIdxScratch.Put(gIdx)
	gSelf := gIdx[len(indices):]
	for p, u := range indices {
		gIdx[p] = frontier[u]
	}
	for i, u := range selfIdx {
		gSelf[i] = frontier[u]
	}
	body := func(v0, v1 int) {
		fusedGatherSum(out, feats, gIdx, gSelf, indptr, norm, v0, v1)
	}
	// Output rows are independent and each is computed by exactly one
	// worker in the same sequential per-row order, so the result is
	// bit-identical under any worker count or schedule. Tiny blocks (and a
	// one-worker pool) run inline — chunk handoff would cost more than the
	// pass.
	if work := (len(indices) + numDst) * d; parallel.Workers() > 1 && work >= fusedParallelWork {
		parallel.Dynamic(numDst, fusedChunk, body)
	} else {
		body(0, numDst)
	}
	return nil
}

const (
	// fusedParallelWork is the edge×width element-update count below which
	// the fused pass stays on the calling goroutine.
	fusedParallelWork = 1 << 15
	// fusedChunk is the dynamic-schedule chunk (destination rows per grab);
	// power-law frontier degree skew self-balances across grabs.
	fusedChunk = 64
)

// fusedIdxScratch pools the per-call translated index buffer.
var fusedIdxScratch parallel.Scratch[int32]

// fusedGatherSum streams each scattered source row once, whole-row
// contiguous (prefetcher-friendly; a tileW register block would revisit
// every scattered row once per tile and defeat it). gIdx/gSelf hold the
// pre-translated global rows. The per-element op order — neighbors in
// index order, then self, then scale — is exactly
// gather-then-AggregateGCN, so results are bit-identical to the unfused
// path.
func fusedGatherSum(out, feats *tensor.Matrix,
	gIdx, gSelf, indptr []int32, norm []float32, i0, i1 int) {
	for i := i0; i < i1; i++ {
		dst := out.Row(i)
		for j := range dst {
			dst[j] = 0
		}
		lo, hi := indptr[i], indptr[i+1]
		for p := lo; p < hi; p++ {
			src := feats.Row(int(gIdx[p]))
			for j := range dst {
				dst[j] += src[j]
			}
		}
		self := feats.Row(int(gSelf[i]))
		n := norm[i]
		for j := range dst {
			dst[j] = (dst[j] + self[j]) * n
		}
	}
}
