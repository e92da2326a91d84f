package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"

	"ocas/internal/exec"
)

// The emitter copies rows into digestChunks chunks of digestChunkWords
// int32s each: a chunk is small enough that folding one is a fraction of a
// millisecond, so little is left to fold when the run ends, and there are
// enough of them that a burst of output queues up before the run starts
// folding for itself — at 128 KiB in all. The fold hashes up to
// digestBlockRows rows per call of the kernel.
const (
	digestChunkWords = 4 << 10
	digestChunks     = 8
	digestBlockRows  = 128
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
// its padding (at most 55 bytes: 12 values) is one compression from the IV
// when the CPU has the SHA extensions: rows of one arity are written into
// blocks, whose length word and padding stay put between calls while the
// arity does, and hashBlocksSHANI hashes them two at a time. Anything else
// goes through crypto/sha256, whose per-call framing costs as much again as
// the compression on a short row.
type digestFold struct {
	blocks [digestBlockRows * 64]byte
	hashes [digestBlockRows]sum256
	arity  int    // of the rows in blocks
	rows   int    // blocks written and not yet hashed
	padded int    // blocks carrying the length word and padding of arity
	msg    []byte // a row's message, for crypto/sha256
}

// add adds to s the hash of every row in chunk.
func (f *digestFold) add(s *sum256, chunk []int32) {
	for len(chunk) > 0 {
		a, n := int(chunk[0]), int(chunk[1])
		cols := chunk[2 : 2+a*n]
		chunk = chunk[2+a*n:]
		if !useSHANI || a > 12 {
			f.addMessages(s, a, n, cols)
			continue
		}
		if a != f.arity {
			f.flush(s)
			f.arity, f.padded = a, 0
		}
		for i := 0; i < n; {
			k := min(n-i, digestBlockRows-f.rows)
			f.write(cols, n, i, k)
			i += k
			if f.rows == digestBlockRows {
				f.flush(s)
			}
		}
	}
	f.flush(s)
}

// write copies rows i to i+k of a segment of n rows, whose values cols holds
// column by column, into the next k blocks.
func (f *digestFold) write(cols []int32, n, i, k int) {
	a, first := f.arity, f.rows
	for ; f.padded < first+k; f.padded++ {
		blk := f.blocks[64*f.padded : 64*f.padded+64]
		clear(blk)
		binary.LittleEndian.PutUint32(blk, uint32(a))
		blk[4+4*a] = 0x80
		binary.BigEndian.PutUint64(blk[56:], uint64(4+4*a)*8)
	}
	for c := 0; c < a; c++ {
		at := 64*first + 4 + 4*c
		for _, v := range cols[c*n+i : c*n+i+k] {
			binary.LittleEndian.PutUint32(f.blocks[at:at+4], uint32(v))
			at += 64
		}
	}
	f.rows += k
}

// flush hashes the written blocks into s, an odd last one paired with a
// copy of itself.
func (f *digestFold) flush(s *sum256) {
	k := f.rows
	if k == 0 {
		return
	}
	if k%2 == 1 {
		copy(f.blocks[64*k:64*k+64], f.blocks[64*k-64:64*k])
	}
	hashBlocksSHANI(&f.hashes[0], f.blocks[:64*(k+k%2)])
	s.addAll(f.hashes[:k])
	f.rows = 0
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

// addAll adds every number of os, the sum kept in registers.
func (s *sum256) addAll(os []sum256) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for i := range os {
		o := &os[i]
		var c uint64
		s0, c = bits.Add64(s0, o[0], 0)
		s1, c = bits.Add64(s1, o[1], c)
		s2, c = bits.Add64(s2, o[2], c)
		s3, _ = bits.Add64(s3, o[3], c)
	}
	*s = sum256{s0, s1, s2, s3}
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
