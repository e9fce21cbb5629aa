package tensor

// haveAVX2 reports whether the AVX2 dense kernels may run: the CPU has AVX
// and AVX2 (CPUID leaves 1 and 7) and the OS saves the YMM registers across
// context switches (OSXSAVE set, XCR0 bits 1 and 2).
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmSave = 0b110   // XCR0: SSE and AVX state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmSave != ymmSave {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// axpyRowAVX2 computes, for each column j of c and t ascending,
// c[j] += val[t] * b[off[t]+j]. The caller guarantees every
// b[off[t] : off[t]+len(c)] is in range.
//
//go:noescape
func axpyRowAVX2(c, b []float32, off []int, val []float32)

// dotRowAVX2 computes c[j] = dot(a, column j of bt), where bt holds len(a)
// rows of stride len(c) rounded up to a multiple of 8. len(a) must be > 0.
//
//go:noescape
func dotRowAVX2(c, a, bt []float32)
