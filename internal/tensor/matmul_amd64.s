#include "textflag.h"

// AVX2 row kernels for the dense matmuls. Each vector lane is one output
// column and runs the scalar loop's float32 operations in the scalar loop's
// order, with a separate VMULPS and VADDPS (never FMA), so every output
// element is bit-identical to the scalar reference. The accumulator is
// always VADDPS's first source, as the destination is in scalar ADDSS.

// tailMask holds 8 all-ones lanes then 8 zero lanes: the 8 lanes starting
// at lane 8-r enable exactly the first r columns.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyRowAVX2(c, b []float32, off []int, val []float32)
//
// For each column j of c, in order t = 0..len(off)-1:
//	c[j] += val[t] * b[off[t]+j]
// Columns go in blocks of 32 (four accumulators), then 8, then a masked
// block for the last n%8.
TEXT ·axpyRowAVX2(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ off_base+48(FP), R8
	MOVQ off_len+56(FP), R9
	MOVQ val_base+72(FP), R10
	XORQ AX, AX                // AX = first column of the block

cols32:
	LEAQ 32(AX), DX
	CMPQ DX, CX
	JGT  cols8
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	LEAQ    (SI)(AX*4), R11    // &b[AX]
	XORQ    BX, BX
	JMP     test32

loop32:
	MOVQ         (R8)(BX*8), R12
	LEAQ         (R11)(R12*4), R12
	VBROADCASTSS (R10)(BX*4), Y8
	VMULPS       (R12), Y8, Y4
	VADDPS       Y4, Y0, Y0
	VMULPS       32(R12), Y8, Y5
	VADDPS       Y5, Y1, Y1
	VMULPS       64(R12), Y8, Y6
	VADDPS       Y6, Y2, Y2
	VMULPS       96(R12), Y8, Y7
	VADDPS       Y7, Y3, Y3
	INCQ         BX

test32:
	CMPQ    BX, R9
	JLT     loop32
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	MOVQ    DX, AX
	JMP     cols32

cols8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     tail
	VMOVUPS (DI)(AX*4), Y0
	LEAQ    (SI)(AX*4), R11
	XORQ    BX, BX
	JMP     test8

loop8:
	MOVQ         (R8)(BX*8), R12
	VBROADCASTSS (R10)(BX*4), Y8
	VMULPS       (R11)(R12*4), Y8, Y4
	VADDPS       Y4, Y0, Y0
	INCQ         BX

test8:
	CMPQ    BX, R9
	JLT     loop8
	VMOVUPS Y0, (DI)(AX*4)
	MOVQ    DX, AX
	JMP     cols8

tail:
	MOVQ       CX, DX
	SUBQ       AX, DX          // DX = n - AX, the 0..7 remaining columns
	JZ         done
	LEAQ       tailMask<>+32(SB), R12
	SHLQ       $2, DX
	SUBQ       DX, R12
	VMOVUPS    (R12), Y9       // Y9 = mask of the first DX/4 lanes
	VMASKMOVPS (DI)(AX*4), Y9, Y0
	LEAQ       (SI)(AX*4), R11
	XORQ       BX, BX
	JMP        testT

loopT:
	MOVQ         (R8)(BX*8), R12
	LEAQ         (R11)(R12*4), R12
	VBROADCASTSS (R10)(BX*4), Y8
	VMASKMOVPS   (R12), Y9, Y4
	VMULPS       Y4, Y8, Y4
	VADDPS       Y4, Y0, Y0
	INCQ         BX

testT:
	CMPQ       BX, R9
	JLT        loopT
	VMASKMOVPS Y0, Y9, (DI)(AX*4)

done:
	VZEROUPPER
	RET

// func dotRowAVX2(c, a, bt []float32)
//
// c[j] = dot(a, column j of bt) with dot's exact order: four partial sums
// over p%4, combined as ((s0+s1)+s2)+s3, then the p ≥ len(a)&^3 tail. bt
// holds B transposed, len(a) rows of stride n rounded up to 8 (padding
// lanes are computed and never stored). Columns go in blocks of 16 (eight
// accumulators), then 8, the last block stored through a mask.
TEXT ·dotRowAVX2(SB), NOSPLIT, $0-72
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R8      // k
	MOVQ bt_base+48(FP), R9
	LEAQ 7(CX), R10
	ANDQ $-8, R10
	SHLQ $2, R10               // R10 = bt row stride in bytes
	LEAQ (R10)(R10*2), R11     // R11 = 3 rows
	MOVQ R8, R12
	ANDQ $-4, R12              // R12 = k &^ 3
	XORQ AX, AX                // AX = first column of the block

cols16:
	LEAQ   16(AX), DX
	CMPQ   DX, CX
	JGT    cols8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ   (R9)(AX*4), R13     // &bt[0][AX]
	XORQ   BX, BX
	JMP    test16

loop16:
	VBROADCASTSS (SI)(BX*4), Y8
	VMULPS       (R13), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMULPS       32(R13), Y8, Y10
	VADDPS       Y10, Y4, Y4
	VBROADCASTSS 4(SI)(BX*4), Y8
	VMULPS       (R13)(R10*1), Y8, Y9
	VADDPS       Y9, Y1, Y1
	VMULPS       32(R13)(R10*1), Y8, Y10
	VADDPS       Y10, Y5, Y5
	VBROADCASTSS 8(SI)(BX*4), Y8
	VMULPS       (R13)(R10*2), Y8, Y9
	VADDPS       Y9, Y2, Y2
	VMULPS       32(R13)(R10*2), Y8, Y10
	VADDPS       Y10, Y6, Y6
	VBROADCASTSS 12(SI)(BX*4), Y8
	VMULPS       (R13)(R11*1), Y8, Y9
	VADDPS       Y9, Y3, Y3
	VMULPS       32(R13)(R11*1), Y8, Y10
	VADDPS       Y10, Y7, Y7
	LEAQ         (R13)(R10*4), R13
	ADDQ         $4, BX

test16:
	CMPQ   BX, R12
	JLT    loop16
	VADDPS Y1, Y0, Y0
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y0, Y0
	VADDPS Y5, Y4, Y4
	VADDPS Y6, Y4, Y4
	VADDPS Y7, Y4, Y4
	JMP    testT16

loopT16:
	VBROADCASTSS (SI)(BX*4), Y8
	VMULPS       (R13), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMULPS       32(R13), Y8, Y10
	VADDPS       Y10, Y4, Y4
	ADDQ         R10, R13
	INCQ         BX

testT16:
	CMPQ    BX, R8
	JLT     loopT16
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y4, 32(DI)(AX*4)
	MOVQ    DX, AX
	JMP     cols16

cols8:
	CMPQ   AX, CX
	JGE    done8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ   (R9)(AX*4), R13
	XORQ   BX, BX
	JMP    test8

loop8:
	VBROADCASTSS (SI)(BX*4), Y8
	VMULPS       (R13), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VBROADCASTSS 4(SI)(BX*4), Y8
	VMULPS       (R13)(R10*1), Y8, Y9
	VADDPS       Y9, Y1, Y1
	VBROADCASTSS 8(SI)(BX*4), Y8
	VMULPS       (R13)(R10*2), Y8, Y9
	VADDPS       Y9, Y2, Y2
	VBROADCASTSS 12(SI)(BX*4), Y8
	VMULPS       (R13)(R11*1), Y8, Y9
	VADDPS       Y9, Y3, Y3
	LEAQ         (R13)(R10*4), R13
	ADDQ         $4, BX

test8:
	CMPQ   BX, R12
	JLT    loop8
	VADDPS Y1, Y0, Y0
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y0, Y0
	JMP    testT8

loopT8:
	VBROADCASTSS (SI)(BX*4), Y8
	VMULPS       (R13), Y8, Y9
	VADDPS       Y9, Y0, Y0
	ADDQ         R10, R13
	INCQ         BX

testT8:
	CMPQ    BX, R8
	JLT     loopT8
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     store8
	VMOVUPS Y0, (DI)(AX*4)
	MOVQ    DX, AX
	JMP     cols8

store8:
	MOVQ       CX, DX
	SUBQ       AX, DX          // DX = n - AX, the 1..7 remaining columns
	LEAQ       tailMask<>+32(SB), R13
	SHLQ       $2, DX
	SUBQ       DX, R13
	VMOVUPS    (R13), Y9
	VMASKMOVPS Y0, Y9, (DI)(AX*4)

done8:
	VZEROUPPER
	RET
