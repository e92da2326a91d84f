//go:build amd64 && !purego

package plan

// hashBlocksSHANI hashes each 64-byte block of p, a message padded into one
// block, from the SHA-256 IV with the SHA extensions, two blocks at a time,
// and stores its hash at out[i], read as a big-endian 256-bit number
// (digest_amd64.s). len(p) is a multiple of 128; out has a slot per block.
//
//go:noescape
func hashBlocksSHANI(out *sum256, p []byte)

// cpuid and xgetbv (of XCR0) read the feature bits useSHANI tests.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// useSHANI holds the conditions crypto/sha256 checks before it runs the
// rounds hashBlocksSHANI copies: SSSE3, SSE4.1 and SHA, and AVX with the OS
// saving its state.
var useSHANI = func() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const ssse3, sse41, osxsave, avx = 1 << 9, 1 << 19, 1 << 27, 1 << 28
	if ecx1&(ssse3|sse41|osxsave|avx) != ssse3|sse41|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<29) != 0
}()
