package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/parallel"
)

// withKernels runs fn with the AVX2 kernels on or off (off = the scalar
// reference loops), restoring the start-up choice afterwards.
func withKernels(avx2 bool, fn func()) {
	saved := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = saved }()
	fn()
}

// sparseMatrix is a random matrix with the given fraction of entries set to
// zero, alternating +0 and -0 (both must be skipped).
func sparseMatrix(rng *rand.Rand, rows, cols int, zeros float64) *Matrix {
	m := randomMatrix(rng, rows, cols)
	for i := range m.Data {
		if rng.Float64() < zeros {
			m.Data[i] = float32(math.Copysign(0, float64(i%2*2-1)))
		}
	}
	return m
}

func requireSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != w {
			t.Fatalf("%s: element %d is %#08x (%v), scalar reference %#08x (%v)",
				what, i, g, got.Data[i], w, want.Data[i])
		}
	}
}

// TestDenseAVX2BitIdentical pins the AVX2 matmuls to the scalar loops' exact
// bits for all four entry points, over row counts from 0 to past the
// parallel grain, every n%8 and k%4, A zero densities 0, ½ and 1, kc-strip
// crossings, and 1- and 2-worker pools.
func TestDenseAVX2BitIdentical(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU or OS lacks AVX2; the scalar loops are the only path")
	}
	defer parallel.Configure(parallel.Config{})
	rng0 := rand.New(rand.NewSource(12))
	rowCounts := []int{0, 1, matmulRowChunk - 1, 2000 + rng0.Intn(64)}
	for _, workers := range []int{1, 2} {
		parallel.Configure(parallel.Config{Workers: workers})
		rng := rand.New(rand.NewSource(int64(workers)))
		shape := 0
		for nr := 0; nr < 8; nr++ {
			for kr := 0; kr < 4; kr++ {
				for _, zeros := range []float64{0, 0.5, 1} {
					m := rowCounts[shape%len(rowCounts)]
					n := 8*rng.Intn(5) + nr
					k := 4*(1+rng.Intn(12)) + kr
					if shape%16 == 5 {
						k = matmulKC + 4*rng.Intn(20) + kr // two kc strips
					}
					shape++
					name := fmt.Sprintf("w%d/%dx%dx%d/z%.1f", workers, m, k, n, zeros)
					checkDenseBits(t, rng, name, m, k, n, zeros)
				}
			}
		}
	}
}

func checkDenseBits(t *testing.T, rng *rand.Rand, name string, m, k, n int, zeros float64) {
	t.Helper()
	a := sparseMatrix(rng, m, k, zeros)  // MatMul, MatMulAcc, MatMulTransB
	at := sparseMatrix(rng, k, m, zeros) // MatMulTransA
	b := randomMatrix(rng, k, n)
	bt := randomMatrix(rng, n, k)
	if zeros == 1 && k*n > 0 {
		// Every A entry is zero, so the skip must keep this Inf out of
		// MatMul's result (0·Inf would be NaN).
		b.Data[0] = float32(math.Inf(1))
	}
	c0 := randomMatrix(rng, m, n)

	ops := []struct {
		op  string
		run func() *Matrix
	}{
		{"MatMul", func() *Matrix { c := New(m, n); MatMul(c, a, b); return c }},
		{"MatMulAcc", func() *Matrix { c := c0.Clone(); MatMulAcc(c, a, b); return c }},
		{"MatMulTransA", func() *Matrix { c := New(m, n); MatMulTransA(c, at, b); return c }},
		{"MatMulTransB", func() *Matrix { c := New(m, n); MatMulTransB(c, a, bt); return c }},
	}
	for _, o := range ops {
		var want, got *Matrix
		withKernels(false, func() { want = o.run() })
		withKernels(true, func() { got = o.run() })
		requireSameBits(t, name+"/"+o.op, got, want)
	}
}

// BenchmarkDense times both kernel paths at the dense-layer shapes of the
// training workloads, m×k×n with k the layer's input width and n its
// output width: MatMul is the forward X·W, MatMulTransA the weight
// gradient Xᵀ·dY, MatMulTransB the input gradient dY·Wᵀ. Hidden-layer
// inputs are post-ReLU, about half zeros.
func BenchmarkDense(b *testing.B) {
	shapes := []struct {
		m, k, n int
		zeros   float64
	}{
		{2048, 50, 64, 0},
		{2048, 64, 64, 0.5},
		{2048, 64, 47, 0.5},
		{256, 64, 47, 0.5},
	}
	paths := []struct {
		name string
		avx2 bool
	}{{"scalar", false}, {"avx2", true}}
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(1))
		x := sparseMatrix(rng, s.m, s.k, s.zeros)
		w := randomMatrix(rng, s.k, s.n)
		dy := randomMatrix(rng, s.m, s.n)
		y, dw, dx := New(s.m, s.n), New(s.k, s.n), New(s.m, s.k)
		ops := []struct {
			name string
			run  func()
		}{
			{"MatMul", func() { MatMul(y, x, w) }},
			{"TransA", func() { MatMulTransA(dw, x, dy) }},
			{"TransB", func() { MatMulTransB(dx, dy, w) }},
		}
		for _, o := range ops {
			for _, p := range paths {
				name := fmt.Sprintf("%dx%dx%d_z%.0f/%s/%s", s.m, s.k, s.n, 100*s.zeros, o.name, p.name)
				b.Run(name, func(b *testing.B) {
					if p.avx2 && !haveAVX2 {
						b.Skip("no AVX2")
					}
					withKernels(p.avx2, func() {
						for b.Loop() {
							o.run()
						}
					})
				})
			}
		}
	}
}
