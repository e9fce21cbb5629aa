//go:build !amd64

package tensor

// haveAVX2 is false off amd64: the dense matmuls run the scalar loops.
var haveAVX2 = false

func axpyRowAVX2(c, b []float32, off []int, val []float32) {
	panic("tensor: AVX2 kernel called on a non-amd64 build")
}

func dotRowAVX2(c, a, bt []float32) {
	panic("tensor: AVX2 kernel called on a non-amd64 build")
}
