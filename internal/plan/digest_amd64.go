//go:build amd64 && !purego

package plan

// hashRows16 hashes rows i to i+15 of a segment of n rows of arity a, whose
// values cols holds column by column, one row per 32-bit lane, and adds word
// j of lane l's hash to lanes[j][l] (digest_amd64.s). tmpl holds the message
// words every row of arity a shares, a row's values being words 1 to a; mask
// has a bit for each of the sixteen rows the segment holds.
//
//go:noescape
func hashRows16(lanes *[8][16]uint64, tmpl *[16]uint32, cols *int32, i, n, a int, mask uint16)

// cpuid and xgetbv (of XCR0) read the feature bits useAVX512 tests.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// useAVX512 holds when the CPU has AVX-512F and AVX-512BW (VPSHUFB on Z
// registers) and the OS saves the Z registers and the mask registers.
var useAVX512 = func() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 { // OSXSAVE: XGETBV runs
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f, avx512bw = 1 << 16, 1 << 30
	return ebx7&(avx512f|avx512bw) == avx512f|avx512bw
}()
