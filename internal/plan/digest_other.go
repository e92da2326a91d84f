//go:build !amd64 || purego

package plan

const useAVX512 = false

func hashRows16(lanes *[8][16]uint64, tmpl *[16]uint32, cols *int32, i, n, a int, mask uint16) {
	panic("plan: no AVX-512 kernel in this build")
}
