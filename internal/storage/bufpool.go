package storage

import (
	"fmt"
	"sync"
)

// BufferPool is the one accounting point for operator working memory: every
// block an executor operator keeps resident in RAM — scan batches, join
// outer blocks, partition write buffers, merge cursors — is pinned here, so
// the memory budget of the hierarchy's RAM level is enforced at run time
// instead of merely assumed by the optimizer's constraints. The pool only
// accounts: a frame is a grant of bytes against the budget, not memory — the
// rows a grant covers live in the spill they are read from (block reads are
// column views) or in a buffer the operator allocates to the grant's size.
// Budget enforcement happens at pin time: grants shrink under pressure and
// a pin whose minimum cannot fit fails.
//
// Under the morsel-driven executor every partition strand pins from its own
// Child pool, an independent pool carrying the same plan budget (block
// sizes were tuned against the whole buffer). Strand-private pools make
// every grant — and therefore every block size, transfer count and seek —
// a function of the plan and the partition alone, never of how many
// workers happened to run or how they interleaved; that determinism is
// what keeps device ledgers identical across worker counts. Child counters
// fold into the parent at phase barriers (Adopt).
//
// The pool manages RAM residency only. Device traffic (partition spills,
// sort runs, materialized intermediates) goes through Spill, which charges
// the paper's InitCom/UnitTr events against the owning device's ledger.
type BufferPool struct {
	mu     sync.Mutex
	budget int64 // bytes; <= 0 means unlimited
	used   int64
	stats  PoolStats
}

// PoolStats reports the pool's accounting counters. For a pool tree (a
// parent with adopted children) the counters are sums; PeakBytes is the
// maximum per-pool peak across the tree, not a concurrent total.
type PoolStats struct {
	Budget    int64 `json:"budget"` // 0 = unlimited
	UsedBytes int64 `json:"usedBytes"`
	PeakBytes int64 `json:"peakBytes"`
	Pins      int64 `json:"pins"`
	// Evictions is always 0: every grant is released outright. The field
	// stays because the benchmark reads it.
	Evictions int64 `json:"evictions"`
	// Shrinks counts grants reduced below their requested size by budget
	// pressure — the pool-contention signal of the execution report.
	Shrinks int64 `json:"shrinks"`
	Spills  int64 `json:"spills"` // spill files created through the pool
	// SpillBytes totals the bytes appended to pool-created spills (scratch
	// write traffic, as opposed to resident frame memory).
	SpillBytes int64 `json:"spillBytes"`
}

// Frame is one grant of pooled memory: bytes counted against the pool's
// budget from PinUpTo until Release.
type Frame struct {
	pool     *BufferPool
	bytes    int64
	released bool
}

// NewBufferPool returns a pool bounded by budget bytes (<= 0: unlimited,
// the pool still tracks peak usage).
func NewBufferPool(budget int64) *BufferPool {
	if budget < 0 {
		budget = 0
	}
	return &BufferPool{budget: budget}
}

// Child returns the pool of one partition strand of a parallel phase: an
// independent pool carrying this pool's budget (the plan's block sizes are
// tuned against the whole buffer, so every strand arbitrates within it —
// see exec.Ctx). Fold its counters back with Adopt when the strand
// completes.
func (p *BufferPool) Child() *BufferPool {
	return NewBufferPool(p.budget)
}

// Adopt folds a completed child pool's counters into this pool. Call it at
// a deterministic point (the executor adopts partition pools in partition
// order at phase barriers).
func (p *BufferPool) Adopt(children ...*BufferPool) {
	for _, c := range children {
		if c == nil || c == p {
			continue
		}
		cs := c.Stats()
		p.mu.Lock()
		p.stats.Pins += cs.Pins
		p.stats.Shrinks += cs.Shrinks
		p.stats.Spills += cs.Spills
		p.stats.SpillBytes += cs.SpillBytes
		if cs.PeakBytes > p.stats.PeakBytes {
			p.stats.PeakBytes = cs.PeakBytes
		}
		p.mu.Unlock()
	}
}

// Budget returns the configured byte budget (0 = unlimited).
func (p *BufferPool) Budget() int64 { return p.budget }

// Stats returns a snapshot of the counters.
func (p *BufferPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Budget = p.budget
	s.UsedBytes = p.used
	return s
}

// PinUpTo grants a frame for as many records as fit: up to maxRows, but at
// least minRows. When the budget cannot hold maxRows next to the frames
// already granted, the grant shrinks toward minRows; only a request whose
// minimum does not fit fails. This is how operators degrade gracefully
// under small budgets: blocks shrink, algorithms stay correct, and the extra
// transfer initiations show up on the virtual clock.
func (p *BufferPool) PinUpTo(maxRows, minRows, width int64) (*Frame, error) {
	if width <= 0 {
		return nil, fmt.Errorf("storage: pin with non-positive width %d", width)
	}
	if minRows < 1 {
		minRows = 1
	}
	if maxRows < minRows {
		maxRows = minRows
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rows := maxRows
	if p.budget > 0 {
		free := p.budget - p.used
		if maxRows*width > free {
			// Shrunken grant: take at most half of what is left, so later
			// pinners of the same plan still find room (each successive
			// shrunken pin halves the remainder instead of starving it).
			got := free / 2 / width
			if got < minRows {
				got = free / width
			}
			if got < minRows {
				return nil, fmt.Errorf("storage: buffer pool over budget: need %d bytes for %d records, budget %d with %d pinned",
					minRows*width, minRows, p.budget, p.used)
			}
			if got < rows {
				rows = got
				p.stats.Shrinks++
			}
		}
	}
	bytes := rows * width
	p.used += bytes
	if p.used > p.stats.PeakBytes {
		p.stats.PeakBytes = p.used
	}
	p.stats.Pins++
	return &Frame{pool: p, bytes: bytes}, nil
}

// Cap returns the frame's capacity in records of the pinned width.
func (f *Frame) Cap(width int64) int64 {
	if width <= 0 {
		return 0
	}
	return f.bytes / width
}

// Release returns the frame's bytes to the pool. Idempotent.
func (f *Frame) Release() {
	p := f.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.released {
		return
	}
	f.released = true
	p.used -= f.bytes
}

// spillChunkRecords is the growth increment of a spill past its reservation.
const spillChunkRecords = 64 << 10

// Spill is a device-resident run of fixed-width records: the executor's
// spill file for relations, hash-join partitions, sort runs and
// materialized intermediates. Appends and reads charge the same InitCom
// (seek/erase) and UnitTr (per-byte) events the paper's cost model charges,
// through the caller's Acct — seek detection is stream-relative (sequential
// within this spill), so charges do not depend on where the device's space
// was claimed.
//
// A spill is column vectors plus a claim on its device: the records
// reserved at creation, spillChunkRecords-record chunks as appends outgrow
// them, and exactly what PreloadCols installs. A claim the device cannot
// hold fails the call that needed it with an error, and nothing is
// installed.
//
// A Spill is single-writer: concurrent strands each write their own spill
// (the executor's exchange gives every partition task a private spill per
// bucket) and readers only start after the writing phase's barrier.
//
// The payload is column-striped: record field c of every record lives in
// one contiguous vector, so ReadColsAt can hand the executor zero-copy
// column views (the batch protocol's native currency) and durable segments
// load without a row transpose. The charge model is layout-blind — charges
// depend only on the (spill, index, count) sequence of AppendBlocks and
// ReadColsAt calls, never on how the bytes are arranged in host memory.
type Spill struct {
	dev     *Device
	pool    *BufferPool // non-nil when created through a pool (stats)
	width   int64
	cols    [][]int32
	count   int64
	claimed int64 // records of device space held
}

// Backing supplies the payload of a durably stored table: its rows live in
// segment files (see Segment) and are read once, when the table is bound.
type Backing interface {
	// ReadCols fills dst[c] with column c of n records starting at record
	// lo — the same column-striped layout a spill holds.
	ReadCols(dst [][]int32, lo, n int64) error
}

// NewSpill allocates a spill file for records of width bytes on the device,
// claiming and preallocating reserve records up front (0: claim as records
// arrive).
func (d *Device) NewSpill(width, reserve int64) (*Spill, error) {
	if width <= 0 || width%4 != 0 {
		return nil, fmt.Errorf("storage: spill width must be a positive multiple of 4, got %d", width)
	}
	reserve = max(reserve, 0)
	if err := d.claim(reserve * width); err != nil {
		return nil, err
	}
	s := &Spill{dev: d, width: width, cols: make([][]int32, width/4), claimed: reserve}
	if reserve > 0 {
		for c := range s.cols {
			s.cols[c] = make([]int32, 0, reserve)
		}
	}
	return s, nil
}

// NewSpill allocates a spill file on dev and counts it in the pool stats.
func (p *BufferPool) NewSpill(dev *Device, width, reserve int64) (*Spill, error) {
	s, err := dev.NewSpill(width, reserve)
	if err != nil {
		return nil, err
	}
	s.pool = p
	p.mu.Lock()
	p.stats.Spills++
	p.mu.Unlock()
	return s, nil
}

// Records returns the number of records stored.
func (s *Spill) Records() int64 { return s.count }

// Device returns the owning device.
func (s *Spill) Device() *Device { return s.dev }

// grow claims device space for n more records: whole growth chunks past
// what the spill already holds.
func (s *Spill) grow(n int64) error {
	short := s.count + n - s.claimed
	if short <= 0 {
		return nil
	}
	chunks := (short + spillChunkRecords - 1) / spillChunkRecords * spillChunkRecords
	if err := s.dev.claim(chunks * s.width); err != nil {
		return err
	}
	s.claimed += chunks
	return nil
}

// AppendCols charges a write of rows records supplied as per-column
// vectors (cols[c][:rows]) — the executor's columnar batches append
// without a row detour.
func (s *Spill) AppendCols(a *Acct, cols [][]int32, rows int64) error {
	return s.AppendBlocks(a, cols, rows, 1, 0)
}

// AppendBlocks is what n AppendCols calls of k records each, taken off
// cols[c][:k*n] one after the other and each preceded by a.CPU(the block's
// bytes, perByte), leave behind — a buffer of k records filled and evicted n
// times over — with the payload appended once and the strand charged in one
// go (see Acct.chargeAppends). A device too full for the records is an
// error that appends and charges nothing.
func (s *Spill) AppendBlocks(a *Acct, cols [][]int32, k, n int64, perByte float64) error {
	if k <= 0 || n <= 0 {
		return nil
	}
	rows := k * n
	if err := s.grow(rows); err != nil {
		return err
	}
	at := s.count
	for c := range s.cols {
		s.cols[c] = append(s.cols[c], cols[c][:rows]...)
	}
	s.count += rows
	a.chargeAppends(s, at, k, n, perByte)
	if s.pool != nil {
		s.pool.mu.Lock()
		s.pool.stats.SpillBytes += rows * s.width
		s.pool.mu.Unlock()
	}
	return nil
}

// PreloadCols installs column-striped records without charging I/O (the
// data already resides on the device when the run starts): cols[c] becomes
// column c of an empty spill as it stands, no transposition, no copy, and
// the spill owns the vectors from here on. It claims device space for
// exactly the records its reservation does not cover. Columns that do not
// fit the spill or its device are an error: they come from a caller's
// input, not from the executor's own arithmetic.
func (s *Spill) PreloadCols(cols [][]int32) error {
	if s.count != 0 {
		return fmt.Errorf("storage: column preload into a spill holding %d records", s.count)
	}
	if len(cols) != len(s.cols) {
		return fmt.Errorf("storage: preload of %d columns into a spill of %d", len(cols), len(s.cols))
	}
	n := int64(len(cols[0]))
	for c, col := range cols {
		if int64(len(col)) != n {
			return fmt.Errorf("storage: preload column %d holds %d records, column 0 holds %d", c, len(col), n)
		}
	}
	if short := n - s.claimed; short > 0 {
		if err := s.dev.claim(short * s.width); err != nil {
			return err
		}
		s.claimed = n
	}
	copy(s.cols, cols)
	s.count = n
	return nil
}

// ReadColsAt charges a blocked read of up to n records starting at idx and
// returns them as View does.
func (s *Spill) ReadColsAt(a *Acct, idx, n int64, dst [][]int32) ([][]int32, int64) {
	dst, n = s.View(idx, n, dst)
	a.chargeReads(s, idx, n, n, 0)
	return dst, n
}

// View returns zero-copy per-column views of up to n records starting at
// idx plus the clamped record count, charging nothing: the host's access to
// the payload, which ChargeReads prices block by block. dst, when non-nil,
// is reused as the view header so steady-state readers allocate nothing;
// the views stay valid as long as the spill is not appended to, reset or
// freed.
func (s *Spill) View(idx, n int64, dst [][]int32) ([][]int32, int64) {
	if idx >= s.count {
		return nil, 0
	}
	if idx+n > s.count {
		n = s.count - idx
	}
	w := len(s.cols)
	if cap(dst) >= w {
		dst = dst[:w]
	} else {
		dst = make([][]int32, w)
	}
	for c := 0; c < w; c++ {
		dst[c] = s.cols[c][idx : idx+n]
	}
	return dst, n
}

// ChargeReads charges what reading the rows records at idx (all of them
// stored) in consecutive ReadColsAt calls of k records would, each followed
// by a.CPU(the block's records, perRow): the modelled blocks of a stretch
// the host fetched as one View (see Acct.chargeReads).
func (s *Spill) ChargeReads(a *Acct, idx, k, rows int64, perRow float64) {
	a.chargeReads(s, idx, k, rows, perRow)
}

// Reset empties the spill for reuse, keeping its claim and its vectors'
// capacity.
func (s *Spill) Reset() {
	s.count = 0
	for c := range s.cols {
		s.cols[c] = s.cols[c][:0]
	}
}

// Free returns the spill's device space (and host memory); a second Free
// returns nothing. A cancelled or completed run frees its scratch spills so
// the device's live allocation drops back; using a freed spill is a bug.
func (s *Spill) Free() {
	if s == nil {
		return
	}
	s.dev.free(s.claimed * s.width)
	s.claimed, s.count, s.cols = 0, 0, nil
}
