package storage

import "unsafe"

// hostLittleEndian reports whether this host's native int32 byte order
// matches the segment format's little-endian encoding, enabling the
// codec-free paths (file bytes land directly in column memory, and column
// memory is copied directly into the file's chunk buffer).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// int32Bytes views an int32 slice as its raw byte image. Only valid for
// file payloads whose encoding matches the host byte order.
func int32Bytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}
