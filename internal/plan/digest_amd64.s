// hashRows16 is SHA-256 (FIPS 180-4) on sixteen one-block messages at once,
// one per 32-bit lane of the Z registers: Z0-Z15 the message schedule, kept
// in place (word t in register t mod 16), Z16-Z23 the working variables a-h,
// Z24-Z26 temporaries and Z28 the byte-swap shuffle. A round does not move
// its variables; the next one names them rotated by one, so after eight
// rounds, and after sixteen, every register has its first role again.
// cpuid and xgetbv follow go1.24.0's src/internal/cpu/cpu_x86.s.

//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// The round constants K (FIPS 180-4, 4.2.2).
DATA K256<>+0(SB)/4, $0x428a2f98
DATA K256<>+4(SB)/4, $0x71374491
DATA K256<>+8(SB)/4, $0xb5c0fbcf
DATA K256<>+12(SB)/4, $0xe9b5dba5
DATA K256<>+16(SB)/4, $0x3956c25b
DATA K256<>+20(SB)/4, $0x59f111f1
DATA K256<>+24(SB)/4, $0x923f82a4
DATA K256<>+28(SB)/4, $0xab1c5ed5
DATA K256<>+32(SB)/4, $0xd807aa98
DATA K256<>+36(SB)/4, $0x12835b01
DATA K256<>+40(SB)/4, $0x243185be
DATA K256<>+44(SB)/4, $0x550c7dc3
DATA K256<>+48(SB)/4, $0x72be5d74
DATA K256<>+52(SB)/4, $0x80deb1fe
DATA K256<>+56(SB)/4, $0x9bdc06a7
DATA K256<>+60(SB)/4, $0xc19bf174
DATA K256<>+64(SB)/4, $0xe49b69c1
DATA K256<>+68(SB)/4, $0xefbe4786
DATA K256<>+72(SB)/4, $0x0fc19dc6
DATA K256<>+76(SB)/4, $0x240ca1cc
DATA K256<>+80(SB)/4, $0x2de92c6f
DATA K256<>+84(SB)/4, $0x4a7484aa
DATA K256<>+88(SB)/4, $0x5cb0a9dc
DATA K256<>+92(SB)/4, $0x76f988da
DATA K256<>+96(SB)/4, $0x983e5152
DATA K256<>+100(SB)/4, $0xa831c66d
DATA K256<>+104(SB)/4, $0xb00327c8
DATA K256<>+108(SB)/4, $0xbf597fc7
DATA K256<>+112(SB)/4, $0xc6e00bf3
DATA K256<>+116(SB)/4, $0xd5a79147
DATA K256<>+120(SB)/4, $0x06ca6351
DATA K256<>+124(SB)/4, $0x14292967
DATA K256<>+128(SB)/4, $0x27b70a85
DATA K256<>+132(SB)/4, $0x2e1b2138
DATA K256<>+136(SB)/4, $0x4d2c6dfc
DATA K256<>+140(SB)/4, $0x53380d13
DATA K256<>+144(SB)/4, $0x650a7354
DATA K256<>+148(SB)/4, $0x766a0abb
DATA K256<>+152(SB)/4, $0x81c2c92e
DATA K256<>+156(SB)/4, $0x92722c85
DATA K256<>+160(SB)/4, $0xa2bfe8a1
DATA K256<>+164(SB)/4, $0xa81a664b
DATA K256<>+168(SB)/4, $0xc24b8b70
DATA K256<>+172(SB)/4, $0xc76c51a3
DATA K256<>+176(SB)/4, $0xd192e819
DATA K256<>+180(SB)/4, $0xd6990624
DATA K256<>+184(SB)/4, $0xf40e3585
DATA K256<>+188(SB)/4, $0x106aa070
DATA K256<>+192(SB)/4, $0x19a4c116
DATA K256<>+196(SB)/4, $0x1e376c08
DATA K256<>+200(SB)/4, $0x2748774c
DATA K256<>+204(SB)/4, $0x34b0bcb5
DATA K256<>+208(SB)/4, $0x391c0cb3
DATA K256<>+212(SB)/4, $0x4ed8aa4a
DATA K256<>+216(SB)/4, $0x5b9cca4f
DATA K256<>+220(SB)/4, $0x682e6ff3
DATA K256<>+224(SB)/4, $0x748f82ee
DATA K256<>+228(SB)/4, $0x78a5636f
DATA K256<>+232(SB)/4, $0x84c87814
DATA K256<>+236(SB)/4, $0x8cc70208
DATA K256<>+240(SB)/4, $0x90befffa
DATA K256<>+244(SB)/4, $0xa4506ceb
DATA K256<>+248(SB)/4, $0xbef9a3f7
DATA K256<>+252(SB)/4, $0xc67178f2
GLOBL K256<>(SB), RODATA|NOPTR, $256

// The initial hash value H(0) (FIPS 180-4, 5.3.3), a to h.
DATA iv<>+0(SB)/4, $0x6a09e667
DATA iv<>+4(SB)/4, $0xbb67ae85
DATA iv<>+8(SB)/4, $0x3c6ef372
DATA iv<>+12(SB)/4, $0xa54ff53a
DATA iv<>+16(SB)/4, $0x510e527f
DATA iv<>+20(SB)/4, $0x9b05688c
DATA iv<>+24(SB)/4, $0x1f83d9ab
DATA iv<>+28(SB)/4, $0x5be0cd19
GLOBL iv<>(SB), RODATA|NOPTR, $32

// VPSHUFB's byte order for reversing each 32-bit word of a 16-byte lane.
DATA bswap<>+0(SB)/8, $0x0405060700010203
DATA bswap<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap<>(SB), RODATA|NOPTR, $16

#define T0 Z24
#define T1 Z25
#define T2 Z26

// ROUND is round t on the variables a-h with message word w and K[t] at
// k(R8): h becomes T1 + T2, the next round's a, and d becomes d + T1, its
// e. VPTERNLOGD's 0x96 is a three-way XOR (Σ0, Σ1), 0xCA picks f where e is
// set and g elsewhere (Ch), 0xE8 is the majority of a, b and c (Maj).
#define ROUND(a, b, c, d, e, f, g, h, w, k) \
	VPADDD.BCST k(R8), w, T0; \
	VPADDD T0, h, h; \
	VPRORD $6, e, T0; \
	VPRORD $11, e, T1; \
	VPRORD $25, e, T2; \
	VPTERNLOGD $0x96, T2, T1, T0; \
	VPADDD T0, h, h; \
	VMOVDQA32 e, T0; \
	VPTERNLOGD $0xCA, g, f, T0; \
	VPADDD T0, h, h; \
	VPADDD h, d, d; \
	VPRORD $2, a, T0; \
	VPRORD $13, a, T1; \
	VPRORD $22, a, T2; \
	VPTERNLOGD $0x96, T2, T1, T0; \
	VPADDD T0, h, h; \
	VMOVDQA32 a, T0; \
	VPTERNLOGD $0xE8, c, b, T0; \
	VPADDD T0, h, h

// SCHED turns w0, holding word t-16, into word t: σ0 of w1 (word t-15),
// w9 (t-7) and σ1 of w14 (t-2) are added to it.
#define SCHED(w0, w1, w9, w14) \
	VPRORD $7, w1, T0; \
	VPRORD $18, w1, T1; \
	VPSRLD $3, w1, T2; \
	VPTERNLOGD $0x96, T2, T1, T0; \
	VPADDD T0, w0, w0; \
	VPADDD w9, w0, w0; \
	VPRORD $17, w14, T0; \
	VPRORD $19, w14, T1; \
	VPSRLD $10, w14, T2; \
	VPTERNLOGD $0x96, T2, T1, T0; \
	VPADDD T0, w0, w0

// COLUMN loads message word w from the next column, the lanes past the
// segment's end zero, and leaves for the rounds after the last column.
#define COLUMN(w) \
	VMOVDQU32.Z (SI), K1, w; \
	VPSHUFB Z28, w, w; \
	ADDQ BX, SI; \
	DECQ CX; \
	JZ rounds

// SUM adds the IV to hash word j (register h, y its low half), zeroes the
// lanes past the segment's end and adds each lane, widened, to its sum at
// 128*j(DI).
#define SUM(h, y, j) \
	VPADDD.BCST.Z (4*j)(R9), h, K1, h; \
	VPMOVZXDQ y, T0; \
	VEXTRACTI64X4 $1, h, Y25; \
	VPMOVZXDQ Y25, T1; \
	VPADDQ (128*j)(DI), T0, T0; \
	VPADDQ (128*j+64)(DI), T1, T1; \
	VMOVDQU64 T0, (128*j)(DI); \
	VMOVDQU64 T1, (128*j+64)(DI)

// func hashRows16(lanes *[8][16]uint64, tmpl *[16]uint32, cols *int32, i, n, a int, mask uint16)
TEXT ·hashRows16(SB), NOSPLIT, $0-50
	MOVQ lanes+0(FP), DI
	MOVQ tmpl+8(FP), R9
	MOVQ cols+16(FP), SI
	MOVQ i+24(FP), AX
	LEAQ (SI)(AX*4), SI
	MOVQ n+32(FP), BX
	SHLQ $2, BX
	MOVQ a+40(FP), CX
	KMOVW mask+48(FP), K1

	VPBROADCASTD 0(R9), Z0
	VPBROADCASTD 4(R9), Z1
	VPBROADCASTD 8(R9), Z2
	VPBROADCASTD 12(R9), Z3
	VPBROADCASTD 16(R9), Z4
	VPBROADCASTD 20(R9), Z5
	VPBROADCASTD 24(R9), Z6
	VPBROADCASTD 28(R9), Z7
	VPBROADCASTD 32(R9), Z8
	VPBROADCASTD 36(R9), Z9
	VPBROADCASTD 40(R9), Z10
	VPBROADCASTD 44(R9), Z11
	VPBROADCASTD 48(R9), Z12
	VPBROADCASTD 52(R9), Z13
	VPBROADCASTD 56(R9), Z14
	VPBROADCASTD 60(R9), Z15
	VBROADCASTI32X4 bswap<>(SB), Z28
	TESTQ CX, CX
	JZ rounds
	COLUMN(Z1)
	COLUMN(Z2)
	COLUMN(Z3)
	COLUMN(Z4)
	COLUMN(Z5)
	COLUMN(Z6)
	COLUMN(Z7)
	COLUMN(Z8)
	COLUMN(Z9)
	COLUMN(Z10)
	COLUMN(Z11)
	COLUMN(Z12)

rounds:
	LEAQ iv<>(SB), R9
	VPBROADCASTD 0(R9), Z16
	VPBROADCASTD 4(R9), Z17
	VPBROADCASTD 8(R9), Z18
	VPBROADCASTD 12(R9), Z19
	VPBROADCASTD 16(R9), Z20
	VPBROADCASTD 20(R9), Z21
	VPBROADCASTD 24(R9), Z22
	VPBROADCASTD 28(R9), Z23
	LEAQ K256<>(SB), R8
	ROUND(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z0, 0)
	ROUND(Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z1, 4)
	ROUND(Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z2, 8)
	ROUND(Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z3, 12)
	ROUND(Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z4, 16)
	ROUND(Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z5, 20)
	ROUND(Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z6, 24)
	ROUND(Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z7, 28)
	ROUND(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z8, 32)
	ROUND(Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z9, 36)
	ROUND(Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z10, 40)
	ROUND(Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z11, 44)
	ROUND(Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z12, 48)
	ROUND(Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z13, 52)
	ROUND(Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z14, 56)
	ROUND(Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z15, 60)

	// Rounds 16-63, sixteen at a time, each word scheduled as it is used.
	MOVQ $3, DX

schedule:
	ADDQ $64, R8
	SCHED(Z0, Z1, Z9, Z14); ROUND(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z0, 0)
	SCHED(Z1, Z2, Z10, Z15); ROUND(Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z1, 4)
	SCHED(Z2, Z3, Z11, Z0); ROUND(Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z2, 8)
	SCHED(Z3, Z4, Z12, Z1); ROUND(Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z3, 12)
	SCHED(Z4, Z5, Z13, Z2); ROUND(Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z4, 16)
	SCHED(Z5, Z6, Z14, Z3); ROUND(Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z5, 20)
	SCHED(Z6, Z7, Z15, Z4); ROUND(Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z6, 24)
	SCHED(Z7, Z8, Z0, Z5); ROUND(Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z7, 28)
	SCHED(Z8, Z9, Z1, Z6); ROUND(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z8, 32)
	SCHED(Z9, Z10, Z2, Z7); ROUND(Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z9, 36)
	SCHED(Z10, Z11, Z3, Z8); ROUND(Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z21, Z10, 40)
	SCHED(Z11, Z12, Z4, Z9); ROUND(Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z20, Z11, 44)
	SCHED(Z12, Z13, Z5, Z10); ROUND(Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z19, Z12, 48)
	SCHED(Z13, Z14, Z6, Z11); ROUND(Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z18, Z13, 52)
	SCHED(Z14, Z15, Z7, Z12); ROUND(Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z17, Z14, 56)
	SCHED(Z15, Z0, Z8, Z13); ROUND(Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z16, Z15, 60)
	DECQ DX
	JNZ schedule

	SUM(Z16, Y16, 0)
	SUM(Z17, Y17, 1)
	SUM(Z18, Y18, 2)
	SUM(Z19, Y19, 3)
	SUM(Z20, Y20, 4)
	SUM(Z21, Y21, 5)
	SUM(Z22, Y22, 6)
	SUM(Z23, Y23, 7)
	VZEROUPPER
	RET
