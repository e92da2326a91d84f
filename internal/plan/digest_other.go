//go:build !amd64 || purego

package plan

const useSHANI = false

func hashBlocksSHANI(out *sum256, p []byte) { panic("plan: no SHA-NI kernel in this build") }
