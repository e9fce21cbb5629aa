package spmm

import "distgnn/internal/parallel"

// Baseline runs the aggregation primitive exactly as Alg. 1 of the paper
// describes the DGL implementation: destination vertices are statically
// partitioned across threads, and the (⊗, ⊕) operators are dispatched per
// element inside the innermost loop — the interpreted overhead the optimized
// kernels remove.
func Baseline(a *Args) error {
	if err := a.Validate(); err != nil {
		return err
	}
	a.initOutput()
	g := a.G
	d := a.FO.Cols
	staticParallel(g.NumVertices, func(v0, v1 int) {
		for v := v0; v < v1; v++ {
			dst := a.FO.Row(v)
			lo, hi := g.Indptr[v], g.Indptr[v+1]
			for p := lo; p < hi; p++ {
				u := g.Indices[p]
				var src, edge []float32
				if a.FV != nil {
					src = a.FV.Row(int(u))
				}
				if a.FE != nil {
					e := g.EdgeIDs[p]
					edge = a.FE.Row(int(e))
				}
				for j := 0; j < d; j++ {
					var x, y float32
					if src != nil {
						x = src[j]
					}
					if edge != nil {
						y = edge[j]
					}
					dst[j] = a.Red.fold(dst[j], a.Op.apply(x, y))
				}
			}
		}
	})
	a.finalizeEmpty()
	return nil
}

// staticParallel splits [0, n) into one contiguous chunk per pool worker —
// the OpenMP schedule(static) analogue. Power-law degree skew makes chunks
// unbalanced, which is exactly the pathology dynamic scheduling fixes.
func staticParallel(n int, fn func(i0, i1 int)) {
	parallel.For(n, 1, fn)
}
