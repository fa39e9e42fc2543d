//go:build amd64

#include "textflag.h"

// func l2BatchAVX(q, data []float32, n int, out []float32)
//
// AVX block kernel of L2SquaredBatch: out[i] = ||q - data[i*dim:(i+1)*dim]||^2
// for i in [0, n), dim = len(q). Caller guarantees dim > 0,
// len(data) >= n*dim and len(out) >= n.
//
// Results are bit-identical to L2Squared. Each row keeps L2Squared's four
// lanes (lane j sums dims 4k+j), the dim%4 leftover dims go into lane 0, and
// the lanes are summed as ((l0+l1)+l2)+l3. The SIMD width comes from rows,
// not dims: rows A and B share one ymm (A in the low 128 bits, B in the
// high), q is broadcast into both halves, and two such pairs are in flight
// per iteration. No FMA: every product is rounded before it is added.

// REDUCE stores ((l0+l1)+l2)+l3 of acc's four lanes to dst; X5-X7 are
// scratch.
#define REDUCE(acc, dst) \
	VMOVSHDUP acc, X5; \
	VADDSS    X5, acc, X6; \
	VMOVHLPS  acc, acc, X7; \
	VADDSS    X7, X6, X6; \
	VMOVHLPS  X5, X5, X5; \
	VADDSS    X5, X6, X6; \
	VMOVSS    X6, dst

TEXT ·l2BatchAVX(SB), NOSPLIT, $0-80
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ data_base+24(FP), DI
	MOVQ n+48(FP), R8
	MOVQ out_base+56(FP), R9

	MOVQ CX, BX
	ANDQ $-4, BX    // dims covered by the 4-lane loop
	MOVQ CX, R10
	SHLQ $2, R10    // row stride in bytes

quad:
	CMPQ R8, $4
	JLT  single
	LEAQ (DI)(R10*1), R11 // row B
	LEAQ (DI)(R10*2), R12 // row C
	LEAQ (R11)(R10*2), R13 // row D
	VXORPS Y8, Y8, Y8      // rows A | B
	VXORPS Y9, Y9, Y9      // rows C | D
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    quadtail

quadloop:
	VBROADCASTF128 (SI)(AX*4), Y0
	VMOVUPS        (DI)(AX*4), X1
	VINSERTF128    $1, (R11)(AX*4), Y1, Y1
	VMOVUPS        (R12)(AX*4), X2
	VINSERTF128    $1, (R13)(AX*4), Y2, Y2
	VSUBPS         Y1, Y0, Y1
	VSUBPS         Y2, Y0, Y2
	VMULPS         Y1, Y1, Y1
	VMULPS         Y2, Y2, Y2
	VADDPS         Y1, Y8, Y8
	VADDPS         Y2, Y9, Y9
	ADDQ           $4, AX
	CMPQ           AX, BX
	JLT            quadloop

quadtail:
	VEXTRACTF128 $1, Y8, X10 // row B lanes
	VEXTRACTF128 $1, Y9, X11 // row D lanes
	CMPQ         AX, CX
	JGE          quadreduce

quadtailloop:
	VMOVSS (SI)(AX*4), X0
	VSUBSS (DI)(AX*4), X0, X1
	VMULSS X1, X1, X1
	VADDSS X1, X8, X8
	VSUBSS (R11)(AX*4), X0, X1
	VMULSS X1, X1, X1
	VADDSS X1, X10, X10
	VSUBSS (R12)(AX*4), X0, X1
	VMULSS X1, X1, X1
	VADDSS X1, X9, X9
	VSUBSS (R13)(AX*4), X0, X1
	VMULSS X1, X1, X1
	VADDSS X1, X11, X11
	INCQ   AX
	CMPQ   AX, CX
	JLT    quadtailloop

quadreduce:
	REDUCE(X8, 0(R9))
	REDUCE(X10, 4(R9))
	REDUCE(X9, 8(R9))
	REDUCE(X11, 12(R9))
	LEAQ (DI)(R10*4), DI
	ADDQ $16, R9
	SUBQ $4, R8
	JMP  quad

single:
	TESTQ R8, R8
	JEQ   done
	VXORPS X8, X8, X8
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    singletail

singleloop:
	VMOVUPS (SI)(AX*4), X0
	VSUBPS  (DI)(AX*4), X0, X1
	VMULPS  X1, X1, X1
	VADDPS  X1, X8, X8
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     singleloop

singletail:
	CMPQ AX, CX
	JGE  singlereduce
	VMOVSS (SI)(AX*4), X0
	VSUBSS (DI)(AX*4), X0, X1
	VMULSS X1, X1, X1
	VADDSS X1, X8, X8
	INCQ   AX
	JMP    singletail

singlereduce:
	REDUCE(X8, 0(R9))
	ADDQ R10, DI
	ADDQ $4, R9
	DECQ R8
	JMP  single

done:
	VZEROUPPER
	RET
