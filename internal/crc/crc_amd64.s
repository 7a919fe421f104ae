#include "textflag.h"

// func hasCLMUL() bool
TEXT ·hasCLMUL(SB),NOSPLIT,$0-1
	MOVL $1, AX
	CPUID
	SHRL $1, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func hasVPCLMUL() bool
TEXT ·hasVPCLMUL(SB),NOSPLIT,$0-1
	MOVB $0, ret+0(FP)
	XORL CX, CX
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   novp

	// The OS must save the opmask and all 512 bits of every ZMM register
	// (XCR0 bits 5–7) besides the SSE and AVX state (bits 1–2): CPUID
	// says what the core has, XGETBV what the kernel switches.
	MOVL $1, AX
	CPUID
	BTL  $27, CX // OSXSAVE
	JCC  novp
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  novp

	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX // AVX512F
	JCC  novp
	BTL  $10, CX // VPCLMULQDQ
	JCC  novp
	MOVB $1, ret+0(FP)
novp:
	RET

// FOLD moves lane x ahead by the distance of the constants in X0, tmp as
// scratch: x = lo(x)⊗lo(X0) ⊕ hi(x)⊗hi(X0).
#define FOLD(x, tmp) \
	MOVOA     x, tmp      \
	PCLMULQDQ $0x00, X0, x \
	PCLMULQDQ $0x11, X0, tmp \
	PXOR      tmp, x

// WIDE is FOLD on the four lanes of ZMM z at once by the constants
// broadcast in Z0, then XORs in m (memory or register) in the same step.
#define WIDE(z, tmp, m) \
	VPCLMULQDQ $0x00, Z0, z, tmp \
	VPCLMULQDQ $0x11, Z0, z, z   \
	VPTERNLOGQ $0x96, m, tmp, z

// func foldCLMUL(reg uint64, p []byte, k *[6]uint64, rem *[16]byte, wide bool)
TEXT ·foldCLMUL(SB),NOSPLIT,$0-49
	MOVQ reg+0(FP), X0
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), R8
	MOVQ rem+40(FP), DI
	CMPB wide+48(FP), $0
	JEQ  narrow
	CMPQ CX, $256
	JB   narrow

	// Sixteen lanes from the first 256 bytes, four to a ZMM register, the
	// register into the first; each step moves all of them 256 bytes on.
	// VMOVQ, unlike the MOVQ above, clears the rest of Z0.
	VMOVQ     reg+0(FP), X0
	VMOVDQU64 (SI), Z1
	VMOVDQU64 64(SI), Z2
	VMOVDQU64 128(SI), Z3
	VMOVDQU64 192(SI), Z4
	VPXORQ    Z0, Z1, Z1
	ADDQ      $256, SI
	SUBQ      $256, CX
	CMPQ      CX, $256
	JB        wide64

	VBROADCASTI32X4 (R8), Z0 // x^2111, x^2047: 256 bytes ahead
loop256:
	WIDE(Z1, Z5, (SI))
	WIDE(Z2, Z6, 64(SI))
	WIDE(Z3, Z7, 128(SI))
	WIDE(Z4, Z8, 192(SI))
	ADDQ $256, SI
	SUBQ $256, CX
	CMPQ CX, $256
	JAE  loop256

	// 256 bytes of lanes to 64, then the four lanes of Z1 to X1–X4: from
	// here on the 64-byte loop and the tail below continue as if they had
	// loaded them.
wide64:
	VBROADCASTI32X4 16(R8), Z0 // x^575, x^511: 64 bytes ahead
	WIDE(Z1, Z5, Z2)
	WIDE(Z1, Z5, Z3)
	WIDE(Z1, Z5, Z4)
	VEXTRACTI32X4 $1, Z1, X2
	VEXTRACTI32X4 $2, Z1, X3
	VEXTRACTI32X4 $3, Z1, X4
	VZEROUPPER
	JMP  more64

narrow:
	// Four lanes from the first 64 bytes, the register into the first.
	MOVOU (SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PXOR  X0, X1
	ADDQ  $64, SI
	SUBQ  $64, CX
more64:
	CMPQ  CX, $64
	JB    lanes

	MOVOU 16(R8), X0 // x^575, x^511: 64 bytes ahead
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
	MOVOU 32(R8), X0 // x^191, x^127: 16 bytes ahead
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
