package tensor

import (
	"fmt"

	"distgnn/internal/parallel"
)

// kernel block sizes for the tiled matmul. kc keeps a strip of B in L1/L2;
// mc rows of A are processed per parallel task.
const (
	matmulKC       = 256
	matmulRowChunk = 16
)

// MatMul computes C = A × B. A is m×k, B is k×n, C is m×n. C must not alias
// A or B. The multiply is parallelized over row blocks of A and tiled over
// the inner dimension so the active strip of B stays cache resident — the
// same blocking discipline the paper applies to the aggregation primitive.
func MatMul(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	c.Zero()
	gemmAcc(c, a, b)
}

// MatMulAcc computes C += A × B without zeroing C first.
func MatMulAcc(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	gemmAcc(c, a, b)
}

func gemmAcc(c, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if useAVX2 {
		axpyRowsAVX2(c, a, b, k, 1)
		return
	}
	parallelRows(m, func(i0, i1 int) {
		for kk := 0; kk < k; kk += matmulKC {
			kEnd := min(kk+matmulKC, k)
			for i := i0; i < i1; i++ {
				aRow := a.Data[i*k : (i+1)*k]
				cRow := c.Data[i*n : (i+1)*n]
				for p := kk; p < kEnd; p++ {
					av := aRow[p]
					if av == 0 {
						continue
					}
					bRow := b.Data[p*n : (p+1)*n]
					saxpyRow(cRow, bRow, av)
				}
			}
		}
	})
}

// saxpyRow computes dst += alpha*src with 4-way unrolling so the compiler
// keeps the accumulators in registers. It is the portable body of gemmAcc
// and MatMulTransA, and the bit-exact reference for axpyRowAVX2, which
// runs the same float32 operations eight columns at a time.
func saxpyRow(dst, src []float32, alpha float32) {
	n := len(src)
	_ = dst[n-1]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// MatMulTransA computes C = Aᵀ × B where A is k×m, B is k×n, C is m×n.
// This is the shape needed for weight gradients (Xᵀ·dY) during backprop.
func MatMulTransA(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch (%dx%d)ᵀ×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	c.Zero()
	m, n, k := c.Rows, c.Cols, a.Rows
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if useAVX2 {
		axpyRowsAVX2(c, a, b, 1, m)
		return
	}
	// Parallelize over rows of C (columns of A) to avoid write conflicts.
	parallelRows(m, func(i0, i1 int) {
		for p := 0; p < k; p++ {
			aRow := a.Data[p*m : (p+1)*m]
			bRow := b.Data[p*n : (p+1)*n]
			for i := i0; i < i1; i++ {
				av := aRow[i]
				if av == 0 {
					continue
				}
				saxpyRow(c.Data[i*n:(i+1)*n], bRow, av)
			}
		}
	})
}

// MatMulTransB computes C = A × Bᵀ where A is m×k, B is n×k, C is m×n.
// This is the shape needed for input gradients (dY·Wᵀ) during backprop.
func MatMulTransB(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch (%dx%d)×(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	m, n, k := c.Rows, c.Cols, a.Cols
	if useAVX2 && k > 0 {
		matMulTransBAVX2(c, a, b)
		return
	}
	parallelRows(m, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			aRow := a.Data[i*k : (i+1)*k]
			cRow := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bRow := b.Data[j*k : (j+1)*k]
				cRow[j] = dot(aRow, bRow)
			}
		}
	})
}

// dot is MatMulTransB's portable body and the bit-exact reference for
// dotRowAVX2.
func dot(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	_ = b[n-1]
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// useAVX2 routes the dense matmuls to the AVX2 kernels. It is fixed from
// CPUID at start-up; only tests change it, to run the scalar reference.
var useAVX2 = haveAVX2

// axpyRowsAVX2 is the vector body of gemmAcc and MatMulTransA:
// C[i,:] += Σ_p A(i,p)·B[p,:] with A(i,p) = a.Data[i*rs+p*ps], p ascending
// and zero A entries skipped, exactly as the scalar loops do it. Each row's
// nonzero list is built once per kc strip, then reused by every column
// block, so the skip costs no branch per block.
func axpyRowsAVX2(c, a, b *Matrix, rs, ps int) {
	m, k, n := c.Rows, b.Rows, c.Cols
	parallelRows(m, func(i0, i1 int) {
		var off [matmulKC]int
		var val [matmulKC]float32
		for kk := 0; kk < k; kk += matmulKC {
			kEnd := min(kk+matmulKC, k)
			for i := i0; i < i1; i++ {
				nnz := nonzeros(off[:kEnd-kk], val[:kEnd-kk], a.Data[i*rs+kk*ps:], ps, kk, n)
				axpyRowAVX2(c.Data[i*n:(i+1)*n], b.Data, off[:nnz], val[:nnz])
			}
		}
	})
}

// nonzeros scans a[t*stride] for t < len(off) and lists the nonzero ones
// in order, (p0+t)*n in off and the entry in the same slot of val; it
// returns how many it listed. It does not branch on the data, so half-zero
// ReLU outputs cost no mispredictions. Kept out of line: inlined into the
// row loop it spills every register.
//
//go:noinline
func nonzeros(off []int, val []float32, a []float32, stride, p0, n int) int {
	val = val[:len(off)]
	nnz := 0
	for t := range off {
		v := a[t*stride]
		off[nnz], val[nnz] = (p0+t)*n, v
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// transBScratch recycles MatMulTransB's transposed copy of B.
var transBScratch parallel.Scratch[float32]

// matMulTransBAVX2 is the vector body of MatMulTransB. B is copied
// transposed, rows padded to a multiple of 8 columns, so each output
// column is one vector lane.
func matMulTransBAVX2(c, a, b *Matrix) {
	m, n, k := c.Rows, c.Cols, a.Cols
	n8 := (n + 7) &^ 7
	bt := transBScratch.Get(k * n8)
	for p := 0; p < k; p++ {
		row := bt[p*n8 : (p+1)*n8]
		for j := 0; j < n; j++ {
			row[j] = b.Data[j*k+p]
		}
		clear(row[n:])
	}
	parallelRows(m, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			dotRowAVX2(c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], bt)
		}
	})
	transBScratch.Put(bt)
}

// parallelRows splits [0, rows) into contiguous chunks of at least
// matmulRowChunk rows on the shared worker pool. Chunks are contiguous so
// each worker writes to disjoint cache lines of the output.
func parallelRows(rows int, fn func(i0, i1 int)) {
	parallel.For(rows, matmulRowChunk, fn)
}
