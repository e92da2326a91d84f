package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"

	"ocas/internal/exec"
)

// The digest packs rows into digestChunks chunks of digestChunkBytes each:
// a chunk is small enough that folding one is a fraction of a millisecond,
// so little is left to fold when the run ends, and there are enough of them
// that a burst of output queues up before the run starts folding for itself
// — at 128 KiB in all.
const (
	digestChunkBytes = 16 << 10
	digestChunks     = 8
)

// bagDigest accumulates the output digest of a run, an order-independent
// digest of a row bag in constant memory: each row is hashed on its own —
// SHA-256 over its length and then its values, each a little-endian uint32 —
// and the hashes, read as big-endian 256-bit numbers, are summed modulo
// 2^256. Summation (unlike XOR) distinguishes multiplicities, and
// commutativity makes the digest independent of batch sizes, pool budgets
// and operator scheduling — without retaining the (potentially enormous)
// output.
//
// Commutativity also takes the hashing off the strand that emits the rows:
// add only packs rows into a chunk, and full chunks queue for one helper
// goroutine to fold, started at the first full chunk (a smaller output is
// folded by hex on the caller's strand) and ended by stop. The emitter
// never waits for it: with every other chunk queued it folds its own chunk
// into its own sum — the same digest, by the same commutativity — and packs
// on, so a run whose output outpaces one hashing strand hashes on two.
type bagDigest struct {
	sum   sum256
	chunk []byte // rows packed and not yet handed off

	// All three are nil until a chunk is full. full and spare have room for
	// every chunk there is, so neither send can block; an empty spare —
	// everything packed and waiting for the helper — makes add fold.
	full   chan []byte // packed chunks, to the helper
	spare  chan []byte // folded chunks, back from it
	folded chan sum256 // the helper's sum, once full is closed and drained
}

// add packs a batch's rows, handing the chunk off when it is full.
func (d *bagDigest) add(b *exec.Batch) {
	rowBytes := 4 + 4*b.Arity
	// The chunk grows in a local: appending through the field is a pointer
	// store, and a write barrier, per value while the collector runs.
	chunk := d.chunk
	for i, n := 0, b.Rows(); i < n; i++ {
		if len(chunk) > 0 && len(chunk)+rowBytes > digestChunkBytes {
			d.chunk = chunk
			d.handOff()
			chunk = d.chunk
		}
		chunk = binary.LittleEndian.AppendUint32(chunk, uint32(b.Arity))
		for _, col := range b.Cols {
			chunk = binary.LittleEndian.AppendUint32(chunk, uint32(col[i]))
		}
	}
	d.chunk = chunk
}

// handOff queues the full chunk for the helper, starting it if this is the
// first, and continues in a spare one — or, when none is free, folds the
// chunk here and continues in it.
func (d *bagDigest) handOff() {
	if d.full == nil {
		d.full = make(chan []byte, digestChunks)
		d.spare = make(chan []byte, digestChunks)
		d.folded = make(chan sum256, 1)
		for i := 1; i < digestChunks; i++ {
			d.spare <- make([]byte, 0, digestChunkBytes)
		}
		go d.help()
	}
	select {
	case spare := <-d.spare:
		d.full <- d.chunk
		d.chunk = spare[:0]
	default:
		d.sum.addRows(d.chunk)
		d.chunk = d.chunk[:0]
	}
}

// help is the helper strand: it folds queued chunks into a sum of its own,
// handing each back as a spare, until full is closed, and leaves the sum.
func (d *bagDigest) help() {
	var sum sum256
	for chunk := range d.full {
		sum.addRows(chunk)
		d.spare <- chunk
	}
	d.folded <- sum
}

// stop ends the helper, if one was started, and takes its sum, folding what
// is still queued alongside it rather than waiting. Every path out of a run
// calls it; calling it again does nothing.
func (d *bagDigest) stop() {
	if d.full == nil {
		return
	}
	close(d.full)
	for chunk := range d.full {
		d.sum.addRows(chunk)
	}
	d.sum.add(<-d.folded)
	d.full = nil
}

// hex folds what is still packed and returns the digest.
func (d *bagDigest) hex() string {
	d.sum.addRows(d.chunk)
	d.chunk = d.chunk[:0]
	d.stop()
	var out [sha256.Size]byte
	for i, limb := range d.sum {
		binary.BigEndian.PutUint64(out[sha256.Size-8*(i+1):], limb)
	}
	return hex.EncodeToString(out[:])
}

// sum256 is a number modulo 2^256, least significant limb first.
type sum256 [4]uint64

func (s *sum256) add(o sum256) {
	var c uint64
	s[0], c = bits.Add64(s[0], o[0], 0)
	s[1], c = bits.Add64(s[1], o[1], c)
	s[2], c = bits.Add64(s[2], o[2], c)
	s[3], _ = bits.Add64(s[3], o[3], c)
}

// addRows adds the hash of every row packed in chunk.
func (s *sum256) addRows(chunk []byte) {
	for len(chunk) > 0 {
		n := 4 + 4*int(binary.LittleEndian.Uint32(chunk))
		s.addRow(chunk[:n])
		chunk = chunk[n:]
	}
}

// sha256IV is SHA-256's initial state.
var sha256IV = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// addRow adds the SHA-256 of row, read as a big-endian 256-bit number. A
// row that fits one block with its padding (at most 55 bytes: arity 12) is
// one compression from the IV, padded here on the stack, when the CPU has
// the SHA extensions; anything else goes through crypto/sha256, whose
// per-call framing costs as much again as the compression on a short row.
func (s *sum256) addRow(row []byte) {
	if n := len(row); useSHANI && n <= 55 {
		var blk [64]byte
		copy(blk[:], row)
		blk[n] = 0x80
		binary.BigEndian.PutUint64(blk[56:], uint64(n)*8)
		h := sha256IV
		blockSHANI(&h, blk[:])
		s.add(sum256{
			uint64(h[6])<<32 | uint64(h[7]),
			uint64(h[4])<<32 | uint64(h[5]),
			uint64(h[2])<<32 | uint64(h[3]),
			uint64(h[0])<<32 | uint64(h[1]),
		})
		return
	}
	h := sha256.Sum256(row)
	s.add(sum256{
		binary.BigEndian.Uint64(h[24:]),
		binary.BigEndian.Uint64(h[16:]),
		binary.BigEndian.Uint64(h[8:]),
		binary.BigEndian.Uint64(h[0:]),
	})
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
