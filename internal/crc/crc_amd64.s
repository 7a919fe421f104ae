#include "textflag.h"

// func hasCLMUL() bool
TEXT ·hasCLMUL(SB),NOSPLIT,$0-1
	MOVL $1, AX
	CPUID
	SHRL $1, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// FOLD moves lane x ahead by the distance of the constants in X0, tmp as
// scratch: x = lo(x)⊗lo(X0) ⊕ hi(x)⊗hi(X0).
#define FOLD(x, tmp) \
	MOVOA     x, tmp      \
	PCLMULQDQ $0x00, X0, x \
	PCLMULQDQ $0x11, X0, tmp \
	PXOR      tmp, x

// func foldCLMUL(reg uint64, p []byte, k *[4]uint64, rem *[16]byte)
TEXT ·foldCLMUL(SB),NOSPLIT,$0-48
	MOVQ reg+0(FP), X0
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), R8
	MOVQ rem+40(FP), DI

	// Four lanes from the first 64 bytes, the register into the first.
	MOVOU (SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PXOR  X0, X1
	ADDQ  $64, SI
	SUBQ  $64, CX
	CMPQ  CX, $64
	JB    lanes

	MOVOU (R8), X0 // x^575, x^511: 64 bytes ahead
loop64:
	MOVOU (SI), X9
	MOVOU 16(SI), X10
	MOVOU 32(SI), X11
	MOVOU 48(SI), X12
	FOLD(X1, X5)
	FOLD(X2, X6)
	FOLD(X3, X7)
	FOLD(X4, X8)
	PXOR  X9, X1
	PXOR  X10, X2
	PXOR  X11, X3
	PXOR  X12, X4
	ADDQ  $64, SI
	SUBQ  $64, CX
	CMPQ  CX, $64
	JAE   loop64

lanes:
	MOVOU 16(R8), X0 // x^191, x^127: 16 bytes ahead
	FOLD(X1, X5)
	PXOR  X2, X1
	FOLD(X1, X5)
	PXOR  X3, X1
	FOLD(X1, X5)
	PXOR  X4, X1
	CMPQ  CX, $16
	JB    done

loop16:
	MOVOU (SI), X2
	FOLD(X1, X5)
	PXOR  X2, X1
	ADDQ  $16, SI
	SUBQ  $16, CX
	CMPQ  CX, $16
	JAE   loop16

done:
	MOVOU X1, (DI)
	RET
