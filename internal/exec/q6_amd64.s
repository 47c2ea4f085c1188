#include "textflag.h"

// The Q6 kernel's AVX2 body (q6_amd64.go): four rows per step, each conjunct
// a lane mask of all ones or all zeros, no branch but the loop's.

// func cpuHasAVX2() bool
//
// CPUID leaf 1 must report OSXSAVE and AVX, XGETBV that the OS saves the XMM
// and YMM state, and CPUID leaf 7 AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JCS  no
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27), AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX          // XMM (bit 1), YMM (bit 2)
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	SHRL $5, BX          // AVX2 (bit 5)
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// REST4 reads four rows of disc, qty and price at byte offset AX and leaves
// Y1 all ones where the discount fails (uint64(disc-discLo) > discW), Y2 all
// ones where qty < maxQty, and Y3 the low 64 bits of price × disc. AVX2 has
// no 64 × 64 multiply; with p = pH·2³² + pL and d = dH·2³² + dL, the product
// modulo 2⁶⁴ is pL·dL + ((pH·dL + pL·dH) << 32), three VPMULUDQ.
#define REST4 \
	VMOVDQU  (SI)(AX*1), Y5; \
	VMOVDQU  (R8)(AX*1), Y2; \
	VMOVDQU  (R9)(AX*1), Y4; \
	VPSUBQ   Y12, Y5, Y1; \
	VPXOR    Y15, Y1, Y1; \
	VPCMPGTQ Y11, Y1, Y1; \
	VPCMPGTQ Y2, Y10, Y2; \
	VPMULUDQ Y5, Y4, Y3; \
	VPSRLQ   $32, Y4, Y6; \
	VPMULUDQ Y5, Y6, Y6; \
	VPSRLQ   $32, Y5, Y7; \
	VPMULUDQ Y7, Y4, Y7; \
	VPADDQ   Y7, Y6, Y6; \
	VPSLLQ   $32, Y6, Y6; \
	VPADDQ   Y6, Y3, Y3

// SUM4 adds the product under the mask Y0 to the revenue lanes Y9 and
// subtracts the mask (-1 per qualifying row) from the row-count lanes Y8.
#define SUM4 \
	VPAND  Y3, Y0, Y3; \
	VPADDQ Y3, Y9, Y9; \
	VPSUBQ Y0, Y8, Y8

// HSUM folds the four lanes of Y into the low quadword of X.
#define HSUM(Y, X) \
	VEXTRACTI128 $1, Y, X0; \
	VPADDQ       X0, X, X; \
	VPSHUFD      $0x4e, X, X0; \
	VPADDQ       X0, X, X

// func q6AVX2(dates, disc, qty, price []int64, dateLo int64, dateW uint64, discLo int64, discW uint64, maxQty int64, all bool) (revenue, rows int64)
TEXT ·q6AVX2(SB), NOSPLIT, $0-160
	MOVQ dates_base+0(FP), DI
	MOVQ disc_base+24(FP), SI
	MOVQ disc_len+32(FP), CX
	MOVQ qty_base+48(FP), R8
	MOVQ price_base+72(FP), R9
	ANDQ $-4, CX
	SHLQ $3, CX                     // the bytes of whole four-row steps
	XORQ AX, AX

	// An unsigned compare is a signed one with the sign bits flipped:
	// uint64(a) < uint64(b) iff int64(a^s) < int64(b^s), s = 1<<63.
	MOVQ         $0x8000000000000000, DX
	MOVQ         DX, X15
	VPBROADCASTQ X15, Y15
	VPBROADCASTQ dateLo+96(FP), Y14
	VPBROADCASTQ dateW+104(FP), Y13
	VPXOR        Y15, Y13, Y13
	VPBROADCASTQ discLo+112(FP), Y12
	VPBROADCASTQ discW+120(FP), Y11
	VPXOR        Y15, Y11, Y11
	VPBROADCASTQ maxQty+128(FP), Y10
	VPXOR        Y9, Y9, Y9
	VPXOR        Y8, Y8, Y8

	CMPB all+136(FP), $0
	JNE  every

some:
	CMPQ     AX, CX
	JAE      done
	VMOVDQU  (DI)(AX*1), Y0
	VPSUBQ   Y14, Y0, Y0
	VPXOR    Y15, Y0, Y0
	VPCMPGTQ Y0, Y13, Y0            // uint64(date-dateLo) < dateW
	REST4
	VPAND    Y2, Y0, Y0
	VPANDN   Y0, Y1, Y0
	SUM4
	ADDQ     $32, AX
	JMP      some

every: // the bounds decided the date conjunct: dates is not read
	CMPQ   AX, CX
	JAE    done
	REST4
	VPANDN Y2, Y1, Y0
	SUM4
	ADDQ   $32, AX
	JMP    every

done:
	HSUM(Y9, X9)
	HSUM(Y8, X8)
	VMOVQ X9, revenue+144(FP)
	VMOVQ X8, rows+152(FP)
	VZEROUPPER
	RET
