//go:build amd64

#include "textflag.h"

// func sq8ScanAVX2(codes []byte, qm, scale []float32, n int, out []float32)
//
// AVX2 block kernel of the SQ8 scan: for each of the n contiguous codes of
// dim = len(qm) bytes,
//   out[i] = sum_d (qm[d] - float32(code[d])*scale[d])^2.
// Caller guarantees dim > 0, dim % 4 == 0, len(scale) >= dim,
// len(codes) >= n*dim and len(out) >= n.
//
// Numerics match sq8Scan (the pure-Go loop) bit for bit. Each code keeps
// eight lanes: lane j sums dims 8k+j, the dim%8 == 4 tail adds into lanes
// 0-3, the high four lanes are folded onto the low four (l_j = lane j +
// lane j+4) and the result is (l0+l2)+(l1+l3). Per 8 dims a code costs
// VPMOVZXBD, VCVTDQ2PS, VMULPS, VSUBPS, VMULPS, VADDPS; four codes share
// each qm and scale load. No FMA: every product is rounded before use.

// FOLD adds the ymm accumulator's high four lanes (hi, already extracted)
// onto its low four and stores (l0+l2)+(l1+l3) to dst; X6 and X7 are scratch.
#define FOLD(acc, hi, dst) \
	VADDPS    hi, acc, acc; \
	VMOVHLPS  acc, acc, X6; \
	VADDPS    X6, acc, X6; \
	VMOVSHDUP X6, X7; \
	VADDSS    X7, X6, X6; \
	VMOVSS    X6, dst

// TAIL4 adds the four-dim tail of the code at base+AX into acc's low lanes;
// X0 and X1 hold scale and qm for those dims, X2 is scratch.
#define TAIL4(base, acc) \
	VPMOVZXBD (base)(AX*1), X2; \
	VCVTDQ2PS X2, X2; \
	VMULPS    X0, X2, X2; \
	VSUBPS    X2, X1, X2; \
	VMULPS    X2, X2, X2; \
	VADDPS    X2, acc, acc

// DIMS8 adds dims AX..AX+7 of the code at base into acc; Y0 and Y1 hold
// scale and qm for those dims, tmp is scratch.
#define DIMS8(base, tmp, acc) \
	VPMOVZXBD (base)(AX*1), tmp; \
	VCVTDQ2PS tmp, tmp; \
	VMULPS    Y0, tmp, tmp; \
	VSUBPS    tmp, Y1, tmp; \
	VMULPS    tmp, tmp, tmp; \
	VADDPS    tmp, acc, acc

TEXT ·sq8ScanAVX2(SB), NOSPLIT, $0-104
	MOVQ codes_base+0(FP), SI
	MOVQ qm_base+24(FP), DI
	MOVQ qm_len+32(FP), CX
	MOVQ scale_base+48(FP), DX
	MOVQ n+72(FP), R8
	MOVQ out_base+80(FP), R9

	MOVQ CX, BX
	ANDQ $-8, BX // dims covered by the 8-dim loop

quad:
	CMPQ   R8, $4
	JLT    single
	LEAQ   (SI)(CX*1), R10 // code 1
	LEAQ   (SI)(CX*2), R11 // code 2
	LEAQ   (R10)(CX*2), R12 // code 3
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    quadtail

quadloop:
	VMOVUPS (DX)(AX*4), Y0
	VMOVUPS (DI)(AX*4), Y1
	DIMS8(SI, Y2, Y8)
	DIMS8(R10, Y3, Y9)
	DIMS8(R11, Y4, Y10)
	DIMS8(R12, Y5, Y11)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     quadloop

quadtail:
	VEXTRACTF128 $1, Y8, X12
	VEXTRACTF128 $1, Y9, X13
	VEXTRACTF128 $1, Y10, X14
	VEXTRACTF128 $1, Y11, X15
	CMPQ         AX, CX
	JGE          quadfold
	VMOVUPS      (DX)(AX*4), X0
	VMOVUPS      (DI)(AX*4), X1
	TAIL4(SI, X8)
	TAIL4(R10, X9)
	TAIL4(R11, X10)
	TAIL4(R12, X11)

quadfold:
	FOLD(X8, X12, 0(R9))
	FOLD(X9, X13, 4(R9))
	FOLD(X10, X14, 8(R9))
	FOLD(X11, X15, 12(R9))
	LEAQ (SI)(CX*4), SI
	ADDQ $16, R9
	SUBQ $4, R8
	JMP  quad

single:
	TESTQ  R8, R8
	JEQ    done
	VXORPS Y8, Y8, Y8
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    singletail

singleloop:
	VMOVUPS (DX)(AX*4), Y0
	VMOVUPS (DI)(AX*4), Y1
	DIMS8(SI, Y2, Y8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     singleloop

singletail:
	VEXTRACTF128 $1, Y8, X12
	CMPQ         AX, CX
	JGE          singlefold
	VMOVUPS      (DX)(AX*4), X0
	VMOVUPS      (DI)(AX*4), X1
	TAIL4(SI, X8)

singlefold:
	FOLD(X8, X12, 0(R9))
	ADDQ CX, SI
	ADDQ $4, R9
	DECQ R8
	JMP  single

done:
	VZEROUPPER
	RET
