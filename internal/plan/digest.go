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
// that a burst of output queues up instead of stalling the run — at 128 KiB
// in all.
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
// folded by hex on the caller's strand) and ended by stop.
type bagDigest struct {
	sum   sum256
	chunk []byte // rows packed and not yet handed off

	// All three are nil until a chunk is full. full and spare have room for
	// every chunk there is, so only an empty spare — everything packed and
	// waiting for the helper — makes add wait.
	full   chan []byte // packed chunks, to the helper
	spare  chan []byte // folded chunks, back from it
	folded chan sum256 // the helper's sum, once full is closed and drained
}

// add packs a batch's rows, handing the chunk off when it is full.
func (d *bagDigest) add(b *exec.Batch) {
	rowBytes := 4 + 4*b.Arity
	for i, n := 0, b.Rows(); i < n; i++ {
		if len(d.chunk) > 0 && len(d.chunk)+rowBytes > digestChunkBytes {
			d.handOff()
		}
		d.chunk = binary.LittleEndian.AppendUint32(d.chunk, uint32(b.Arity))
		for _, col := range b.Cols {
			d.chunk = binary.LittleEndian.AppendUint32(d.chunk, uint32(col[i]))
		}
	}
}

// handOff queues the full chunk for the helper, starting it if this is the
// first, and continues in a spare one.
func (d *bagDigest) handOff() {
	if d.full == nil {
		d.full = make(chan []byte, digestChunks)
		d.spare = make(chan []byte, digestChunks)
		d.folded = make(chan sum256, 1)
		for i := 1; i < digestChunks; i++ {
			d.spare <- make([]byte, 0, digestChunkBytes)
		}
		go func() {
			var sum sum256
			for chunk := range d.full {
				sum.addRows(chunk)
				d.spare <- chunk
			}
			d.folded <- sum
		}()
	}
	d.full <- d.chunk
	d.chunk = (<-d.spare)[:0]
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
		h := sha256.Sum256(chunk[:n])
		s.add(sum256{
			binary.BigEndian.Uint64(h[24:]),
			binary.BigEndian.Uint64(h[16:]),
			binary.BigEndian.Uint64(h[8:]),
			binary.BigEndian.Uint64(h[0:]),
		})
		chunk = chunk[n:]
	}
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
