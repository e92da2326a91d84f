//go:build !amd64 || purego

package plan

const useSHANI = false

func blockSHANI(dig *[8]uint32, p []byte) { panic("plan: no SHA-NI kernel in this build") }
