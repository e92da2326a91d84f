package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"unsafe"

	"ocas/internal/exec"
)

// The emitter copies rows into digestChunks chunks of digestChunkWords
// int32s each: a chunk is small enough that folding one is a fraction of a
// millisecond, so little is left to fold when the run ends, and there are
// enough of them that a burst of output queues up before the run starts
// folding for itself — at 128 KiB in all.
const (
	digestChunkWords = 4 << 10
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
// add only copies each batch's columns into a chunk, and full chunks queue
// for one helper goroutine to fold, started at the first full chunk (a
// smaller output is folded by hex on the caller's strand) and ended by stop.
// The emitter never waits for it: with every other chunk queued it folds its
// own chunk into its own sum — the same digest, by the same commutativity —
// and copies on, so a run whose output outpaces one hashing strand hashes
// on two.
type bagDigest struct {
	sum   sum256
	fold  digestFold // the emitter's
	chunk []int32    // segments copied and not yet handed off

	// All three are nil until a chunk is full. full and spare have room for
	// every chunk there is, so neither send can block; an empty spare —
	// everything copied and waiting for the helper — makes add fold.
	full   chan []int32 // full chunks, to the helper
	spare  chan []int32 // folded chunks, back from it
	folded chan sum256  // the helper's sum, once full is closed and drained

	// helped counts the chunks the helper folded, set before it sends its
	// sum; own those the emitter folded itself: with no spare free, still
	// queued at stop, or the last one at hex. Both are final once hex
	// returned.
	helped, own int
}

// add copies a batch's rows into the chunk as one segment — its arity, its
// row count, then each column in turn — handing the chunk off when the next
// row does not fit, and continuing the batch in a segment of the next.
func (d *bagDigest) add(b *exec.Batch) {
	a := b.Arity
	for i, n := 0, b.Rows(); i < n; {
		k := min(n-i, (digestChunkWords-len(d.chunk)-2)/a)
		if k <= 0 {
			if len(d.chunk) > 0 {
				d.handOff()
				continue
			}
			k = 1 // a row wider than a chunk has one to itself
		}
		d.chunk = append(d.chunk, int32(a), int32(k))
		for _, col := range b.Cols {
			d.chunk = append(d.chunk, col[i:i+k]...)
		}
		i += k
	}
}

// handOff queues the full chunk for the helper, starting it if this is the
// first, and continues in a spare one — or, when none is free, folds the
// chunk here and continues in it.
func (d *bagDigest) handOff() {
	if d.full == nil {
		d.full = make(chan []int32, digestChunks)
		d.spare = make(chan []int32, digestChunks)
		d.folded = make(chan sum256, 1)
		for i := 1; i < digestChunks; i++ {
			d.spare <- make([]int32, 0, digestChunkWords)
		}
		go d.help()
	}
	select {
	case spare := <-d.spare:
		d.full <- d.chunk
		d.chunk = spare[:0]
	default:
		d.fold.add(&d.sum, d.chunk)
		d.chunk = d.chunk[:0]
		d.own++
	}
}

// help is the helper strand: it folds queued chunks into a sum of its own,
// handing each back as a spare, until full is closed, and leaves the sum.
func (d *bagDigest) help() {
	var sum sum256
	f := new(digestFold)
	n := 0
	for chunk := range d.full {
		f.add(&sum, chunk)
		d.spare <- chunk
		n++
	}
	d.helped = n
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
		d.fold.add(&d.sum, chunk)
		d.own++
	}
	d.sum.add(<-d.folded)
	d.full = nil
}

// hex folds what is still in the chunk and returns the digest.
func (d *bagDigest) hex() string {
	if len(d.chunk) > 0 {
		d.fold.add(&d.sum, d.chunk)
		d.chunk = d.chunk[:0]
		d.own++
	}
	d.stop()
	var out [sha256.Size]byte
	for i, limb := range d.sum {
		binary.BigEndian.PutUint64(out[sha256.Size-8*(i+1):], limb)
	}
	return hex.EncodeToString(out[:])
}

// digestFold hashes chunks' rows into a sum. A row that fits one block with
// its padding (at most 55 bytes: 12 values) is one compression from the IV.
// On a CPU with AVX-512, hashRows16 compresses sixteen of a segment's rows at
// once, one per 32-bit lane, loading their values straight from the columns
// into tmpl, the message words every row of one arity shares, and adds each
// hash word to its lane's sum in lanes, which add carries into the sum once
// per chunk. Anything else goes through crypto/sha256, whose per-call framing
// costs as much again as the compression on a short row.
type digestFold struct {
	lanes [8][16]uint64
	tmpl  [16]uint32
	msg   []byte // a row's message, for crypto/sha256
}

// add adds to s the hash of every row in chunk.
func (f *digestFold) add(s *sum256, chunk []int32) {
	for len(chunk) > 0 {
		a, n := int(chunk[0]), int(chunk[1])
		cols := chunk[2 : 2+a*n]
		chunk = chunk[2+a*n:]
		if !useAVX512 || a > 12 {
			f.addMessages(s, a, n, cols)
			continue
		}
		// The length word tells the arity the words were written for.
		if bitLen := uint32(4+4*a) * 8; f.tmpl[15] != bitLen {
			f.tmpl = [16]uint32{0: bits.ReverseBytes32(uint32(a)), 15: bitLen}
			f.tmpl[a+1] = 0x80000000
		}
		for i := 0; i < n; i += 16 {
			hashRows16(&f.lanes, &f.tmpl, unsafe.SliceData(cols), i, n, a, uint16(1<<min(n-i, 16)-1))
		}
	}
	f.carry(s)
}

// carry adds the lane sums to s, word j of a hash at bit 32·(7−j), and
// clears them. A lane gains less than 2^32 per kernel call, and a chunk
// makes fewer than 2^12 calls, so no lane or word sum can overflow.
func (f *digestFold) carry(s *sum256) {
	var w [8]uint64
	for j := range f.lanes {
		for _, v := range f.lanes[j] {
			w[j] += v
		}
	}
	f.lanes = [8][16]uint64{}
	s.add(sum256{w[7], w[5], w[3], w[1]})
	s.add(sum256{w[6] << 32, w[6]>>32 | w[4]<<32, w[4]>>32 | w[2]<<32, w[2]>>32 | w[0]<<32})
}

// addMessages adds to s the hash of each of a segment's n rows of arity a
// through crypto/sha256.
func (f *digestFold) addMessages(s *sum256, a, n int, cols []int32) {
	for i := 0; i < n; i++ {
		msg := binary.LittleEndian.AppendUint32(f.msg[:0], uint32(a))
		for c := 0; c < a; c++ {
			msg = binary.LittleEndian.AppendUint32(msg, uint32(cols[c*n+i]))
		}
		f.msg = msg
		h := sha256.Sum256(msg)
		s.add(sum256{
			binary.BigEndian.Uint64(h[24:]),
			binary.BigEndian.Uint64(h[16:]),
			binary.BigEndian.Uint64(h[8:]),
			binary.BigEndian.Uint64(h[0:]),
		})
	}
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

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
