#include "go_asm.h"
#include "textflag.h"

// The kernels' AVX2 bodies (avx2_amd64.go). Q6: four rows per step, each
// conjunct a lane mask of all ones or all zeros, no branch but the loop's.
// Q1's price arithmetic and rounds: four chains of four rows per step, every
// round of every row; its ordinals and sums: four rows per step.

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

// CHECK ORs into Y14 a nonzero bit for any of the four rows at byte offset
// OFF+AX outside the range q1ArithRoundsAVX2 is exact over: 0 <= price <
// 2^31, 0 <= 100-disc < 2^7 and 0 <= 100+tax < 2^8 (Y13 holds 100).
#define CHECK(OFF) \
	VMOVDQU OFF(R8)(AX*1), Y8; \
	VPSUBQ  Y8, Y13, Y8; \
	VPSRLQ  $7, Y8, Y8; \
	VPOR    Y8, Y14, Y14; \
	VMOVDQU OFF(R9)(AX*1), Y9; \
	VPADDQ  Y13, Y9, Y9; \
	VPSRLQ  $8, Y9, Y9; \
	VPOR    Y9, Y14, Y14; \
	VMOVDQU OFF(SI)(AX*1), Y10; \
	VPSRLQ  $31, Y10, Y10; \
	VPOR    Y10, Y14, Y14

// PRICE is q1Arith on the four rows at byte offset OFF+AX, which CHECK
// found in range: it stores their discounted price in dp (DI) and their
// charge in ch (DX), and leaves the charge in X. In range every value
// below is a nonnegative integer under 2^40, so it is exact as a float64:
// an integer v < 2^52 converts either way by its bits against 2^52 (Y11),
// as v = float(v | 2^52 bits) - 2^52 and v bits = (v + 2^52) ^ 2^52 bits.
// For 0 <= a < 2^41, a/100 truncated is trunc(a·0.01): the float64 nearest
// 0.01 exceeds it by under 2^-54 relative, so a multiple of 100 times it is
// within half an ulp of the quotient and rounds to it exactly, and any
// other a lies 0.01 or more below the next multiple, far beyond the
// product's error, under 2^-17. Each row's inputs are read before its
// outputs are written, so disc and tax may be dp and ch.
#define PRICE(OFF, X) \
	VMOVDQU  OFF(R8)(AX*1), Y8; \
	VPSUBQ   Y8, Y13, Y8; \
	VMOVDQU  OFF(R9)(AX*1), Y9; \
	VPADDQ   Y13, Y9, Y9; \
	VMOVDQU  OFF(SI)(AX*1), Y10; \
	VPOR     Y11, Y10, Y10; \
	VSUBPD   Y11, Y10, Y10; \
	VPOR     Y11, Y8, Y8; \
	VSUBPD   Y11, Y8, Y8; \
	VMULPD   Y8, Y10, Y10; \
	VMULPD   q1Hundredth<>(SB), Y10, Y10; \
	VROUNDPD $3, Y10, Y10; \
	VPOR     Y11, Y9, Y9; \
	VSUBPD   Y11, Y9, Y9; \
	VMULPD   Y10, Y9, Y9; \
	VMULPD   q1Hundredth<>(SB), Y9, Y9; \
	VROUNDPD $3, Y9, Y9; \
	VADDPD   Y11, Y10, Y10; \
	VPXOR    Y11, Y10, Y10; \
	VMOVDQU  Y10, OFF(DI)(AX*1); \
	VADDPD   Y11, Y9, X; \
	VPXOR    Y11, X, X; \
	VMOVDQU  X, OFF(DX)(AX*1)

DATA  q1Hundredth<>+0(SB)/8, $0.01
DATA  q1Hundredth<>+8(SB)/8, $0.01
DATA  q1Hundredth<>+16(SB)/8, $0.01
DATA  q1Hundredth<>+24(SB)/8, $0.01
GLOBL q1Hundredth<>(SB), RODATA|NOPTR, $32

// ROUND is one of q1Rounds' rounds on the four rows of X, with their
// quantities in Q and T as scratch: x = x*q1Mul + q, then x ^= x >> q1Shift.
// AVX2 has neither a 64 × 64 multiply nor VPSRAQ. q1Mul is 2^q1MulShift - 1,
// so x*q1Mul is (x << q1MulShift) - x, exact modulo 2⁶⁴; the arithmetic
// shift is the logical one with its sign bit, which lands on bit
// 63-q1Shift, extended: ((x >>> q1Shift) ^ s) - s, s = 1 << (63-q1Shift),
// in Y12. Seven one-cycle ops, each on the one before: four chains keep the
// vector ports busy.
#define ROUND(X, Q, T) \
	VPSLLQ $const_q1MulShift, X, T; \
	VPSUBQ X, T, X; \
	VPADDQ Q, X, X; \
	VPSRLQ $const_q1Shift, X, T; \
	VPXOR  Y12, T, T; \
	VPSUBQ Y12, T, T; \
	VPXOR  T, X, X

// func q1ArithRoundsAVX2(dp, ch, price, disc, tax, qty []int64, rounds int) (sum int64, rows int)
//
// A step runs only when CHECK finds its sixteen rows in range, and then no
// result can be -1: a charge is nonnegative, and a round clears the sign
// bit. So the pass only sums the results.
TEXT ·q1ArithRoundsAVX2(SB), NOSPLIT, $0-168
	MOVQ dp_base+0(FP), DI
	MOVQ ch_base+24(FP), DX
	MOVQ price_base+48(FP), SI
	MOVQ price_len+56(FP), CX
	MOVQ disc_base+72(FP), R8
	MOVQ tax_base+96(FP), R9
	MOVQ qty_base+120(FP), R10
	MOVQ rounds+144(FP), BX
	ANDQ $-16, CX
	SHLQ $3, CX                     // the bytes of whole sixteen-row steps
	XORQ AX, AX

	// VEX-encoded moves: a legacy SSE MOVQ after a VPBROADCASTQ stalls on
	// the upper halves it leaves dirty.
	MOVQ         $0x4330000000000000, R11 // 2^52 as a float64
	VMOVQ        R11, X11
	VPBROADCASTQ X11, Y11
	MOVQ         $(1<<(63-const_q1Shift)), R11
	VMOVQ        R11, X12
	VPBROADCASTQ X12, Y12
	MOVQ         $100, R11
	VMOVQ        R11, X13
	VPBROADCASTQ X13, Y13
	VPXOR        Y15, Y15, Y15

step:
	CMPQ    AX, CX
	JAE     done
	VPXOR   Y14, Y14, Y14
	CHECK(0)
	CHECK(32)
	CHECK(64)
	CHECK(96)
	VPTEST  Y14, Y14
	JNZ     done
	PRICE(0, Y0)
	PRICE(32, Y1)
	PRICE(64, Y2)
	PRICE(96, Y3)
	VMOVDQU (R10)(AX*1), Y4
	VMOVDQU 32(R10)(AX*1), Y5
	VMOVDQU 64(R10)(AX*1), Y6
	VMOVDQU 96(R10)(AX*1), Y7
	MOVQ    BX, R11

	// Y11-Y15 hold constants and sums: the fourth chain borrows the
	// first's scratch register.
round:
	CMPQ R11, $0
	JLE  fold
	ROUND(Y0, Y4, Y8)
	ROUND(Y1, Y5, Y9)
	ROUND(Y2, Y6, Y10)
	ROUND(Y3, Y7, Y8)
	DECQ R11
	JMP  round

fold:
	VPADDQ Y0, Y15, Y15
	VPADDQ Y1, Y15, Y15
	VPADDQ Y2, Y15, Y15
	VPADDQ Y3, Y15, Y15
	ADDQ   $128, AX
	JMP    step

done:
	HSUM(Y15, X15)
	VMOVQ X15, sum+152(FP)
	SHRQ  $3, AX
	MOVQ  AX, rows+160(FP)
	VZEROUPPER
	RET

// ADDROW adds row K of the step at AX — its measures in Y, as qty, price,
// dp, ch — to the sums of its ordinal: one to Count, Y to the four
// adjacent sums from SumQty on.
#define ADDROW(K, Y) \
	MOVBQZX K(SI)(AX*1), DX; \
	ANDQ    $const_q1Mask, DX; \
	IMUL3Q  $Q1Group__size, DX, DX; \
	INCQ    Q1Group_Count(DI)(DX*1); \
	VPADDQ  Q1Group_SumQty(DI)(DX*1), Y, Y; \
	VMOVDQU Y, Q1Group_SumQty(DI)(DX*1)

// func q1SumAVX2(sums *[q1Mask + 1]Q1Group, gid []uint8, qty, price, dp, ch []int64)
//
// Four rows a step: the four measure columns are transposed into one
// register per row, each added to its ordinal's sums at once.
TEXT ·q1SumAVX2(SB), NOSPLIT, $0-128
	MOVQ sums+0(FP), DI
	MOVQ gid_base+8(FP), SI
	MOVQ gid_len+16(FP), CX
	MOVQ qty_base+32(FP), R8
	MOVQ price_base+56(FP), R9
	MOVQ dp_base+80(FP), R10
	MOVQ ch_base+104(FP), R11
	ANDQ $-4, CX
	XORQ AX, AX

step:
	CMPQ        AX, CX
	JAE         done
	VMOVDQU     (R8)(AX*8), Y0
	VMOVDQU     (R9)(AX*8), Y1
	VMOVDQU     (R10)(AX*8), Y2
	VMOVDQU     (R11)(AX*8), Y3
	VPUNPCKLQDQ Y1, Y0, Y4          // qty, price of rows 0 | 2
	VPUNPCKHQDQ Y1, Y0, Y5          // rows 1 | 3
	VPUNPCKLQDQ Y3, Y2, Y6          // dp, ch of rows 0 | 2
	VPUNPCKHQDQ Y3, Y2, Y7          // rows 1 | 3
	VPERM2I128  $0x20, Y6, Y4, Y0   // row 0
	VPERM2I128  $0x20, Y7, Y5, Y1   // row 1
	VPERM2I128  $0x31, Y6, Y4, Y2   // row 2
	VPERM2I128  $0x31, Y7, Y5, Y3   // row 3
	ADDROW(0, Y0)
	ADDROW(1, Y1)
	ADDROW(2, Y2)
	ADDROW(3, Y3)
	ADDQ        $4, AX
	JMP         step

done:
	VZEROUPPER
	RET

// q1OrdShuf moves byte 0 and byte 8 of each 128-bit lane to its bytes 0
// and 1 and zeroes the rest.
DATA  q1OrdShuf<>+0(SB)/8, $0x8080808080800800
DATA  q1OrdShuf<>+8(SB)/8, $0x8080808080808080
DATA  q1OrdShuf<>+16(SB)/8, $0x8080808080800800
DATA  q1OrdShuf<>+24(SB)/8, $0x8080808080808080
GLOBL q1OrdShuf<>(SB), RODATA|NOPTR, $32

// func q1OrdinalsAVX2(keys *[2 * q1Slots]uint32, gid []uint8, flag, status []int64) (rows int)
//
// Four rows a step, one per 64-bit lane: the lane's q1Key and its home
// entry h, the entry's key looked up in the sixteen held in Y11 (entries
// 0-7) and Y12 (8-15) by VPERMD on h's low three bits, bit 3 choosing the
// register. A step whose keys are all at home writes h as the four rows'
// ordinals; the first that is not ends the pass.
TEXT ·q1OrdinalsAVX2(SB), NOSPLIT, $0-88
	MOVQ keys+0(FP), DI
	MOVQ gid_base+8(FP), SI
	MOVQ flag_base+32(FP), R8
	MOVQ flag_len+40(FP), CX
	MOVQ status_base+56(FP), R9
	ANDQ $-4, CX
	XORQ AX, AX

	VMOVDQU      (DI), Y11
	VMOVDQU      32(DI), Y12
	MOVQ         $0xff, R11
	VMOVQ        R11, X15
	VPBROADCASTQ X15, Y15
	MOVQ         $(2*const_q1Slots-1), R11
	VMOVQ        R11, X14
	VPBROADCASTQ X14, Y14
	MOVQ         $(1<<20), R11
	VMOVQ        R11, X13
	VPBROADCASTQ X13, Y13
	MOVQ         $0xffffffff, R11
	VMOVQ        R11, X10
	VPBROADCASTQ X10, Y10
	VMOVDQU      q1OrdShuf<>(SB), Y9

step:
	CMPQ       AX, CX
	JAE        done
	VMOVDQU    (R8)(AX*8), Y0
	VMOVDQU    (R9)(AX*8), Y1
	VPAND      Y15, Y0, Y0          // f = byte(flag)
	VPAND      Y15, Y1, Y1          // s = byte(status)
	VPSLLQ     $1, Y1, Y2
	VPXOR      Y0, Y2, Y2
	VPAND      Y14, Y2, Y2          // h = (f ^ s<<1) % 16
	VPSLLQ     $12, Y0, Y0
	VPSLLQ     $4, Y1, Y1
	VPOR       Y1, Y0, Y0
	VPOR       Y2, Y0, Y0
	VPOR       Y13, Y0, Y0          // the key: 1<<20 | f<<12 | s<<4 | h
	VPERMD     Y11, Y2, Y3          // entry h&7 in the low half of each lane
	VPERMD     Y12, Y2, Y4          // entry 8 + h&7
	VPSLLQ     $60, Y2, Y5          // bit 3 of h to the sign bit
	VBLENDVPD  Y5, Y4, Y3, Y3
	VPAND      Y10, Y3, Y3
	VPCMPEQQ   Y0, Y3, Y3
	VMOVMSKPD  Y3, DX
	CMPL       DX, $15
	JNE        done
	VPSHUFB    Y9, Y2, Y2           // h of rows 0, 1 | 2, 3 in the low bytes
	VEXTRACTI128 $1, Y2, X3
	VPUNPCKLWD X3, X2, X2
	VMOVD      X2, (SI)(AX*1)
	ADDQ       $4, AX
	JMP        step

done:
	MOVQ AX, rows+80(FP)
	VZEROUPPER
	RET
