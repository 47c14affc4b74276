#include "textflag.h"

// func gemmStrip8(dst, w, col []float32, bias float32) int
//
// For each block of eight pixels i..i+7 of dst (cols = len(dst)), two
// XMM accumulators start at bias and add w[r]·col[r·cols+i..i+7] for r
// ascending over len(w) rows.
TEXT ·gemmStrip8(SB), NOSPLIT, $0-88
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  w_base+24(FP), SI
	MOVQ  w_len+32(FP), R8
	MOVQ  col_base+48(FP), DX
	MOVSS bias+72(FP), X6
	SHUFPS $0x00, X6, X6     // bias in every lane
	MOVQ  CX, R9
	SHLQ  $2, R9             // row stride of col in bytes
	MOVQ  CX, AX
	ANDQ  $-8, AX            // pixels in full blocks
	MOVQ  AX, ret+80(FP)
	XORQ  BX, BX             // first pixel of the block
	CMPQ  BX, AX
	JGE   done

block:
	MOVAPS X6, X0
	MOVAPS X6, X1
	LEAQ  (DX)(BX*4), R10    // &col[i]
	MOVQ  SI, R11            // &w[0]
	MOVQ  R8, R12            // rows left
	TESTQ R12, R12
	JZ    store

row:
	MOVSS  (R11), X2
	SHUFPS $0x00, X2, X2     // w[r] in every lane
	MOVUPS (R10), X3
	MOVUPS 16(R10), X4
	MULPS  X2, X3
	MULPS  X2, X4
	ADDPS  X3, X0
	ADDPS  X4, X1
	ADDQ   $4, R11
	ADDQ   R9, R10
	DECQ   R12
	JNZ    row

store:
	MOVUPS X0, (DI)(BX*4)
	MOVUPS X1, 16(DI)(BX*4)
	ADDQ   $8, BX
	CMPQ   BX, AX
	JL     block

done:
	RET
