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
	// Unpins and Evictions are always 0: every grant is released outright.
	// The fields stay because execution reports and their readers carry them.
	Unpins    int64 `json:"unpins"`
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

// spillChunkRecords is the growth increment of an unbounded spill.
const spillChunkRecords = 64 << 10

// Spill is a device-resident run of fixed-width records: the executor's
// spill file for relations, hash-join partitions, sort runs and
// materialized intermediates. Appends and reads charge the same InitCom
// (seek/erase) and UnitTr (per-byte) events the paper's cost model charges,
// through the caller's Acct — seek detection is stream-relative (sequential
// within this spill), so charges do not depend on where the concurrent
// allocator placed growth chunks. A spill created with capRecords > 0
// reserves that capacity up front (and panics past it, like Volume);
// capRecords == 0 grows chunk by chunk, claiming device space only as data
// arrives.
//
// A Spill is single-writer: concurrent strands each write their own spill
// (the executor's exchange gives every partition task a private spill per
// bucket) and readers only start after the writing phase's barrier.
//
// The payload is column-striped: record field c of every record lives in
// one contiguous vector, so ReadColsAt can hand the executor zero-copy
// column views (the batch protocol's native currency) and durable segments
// load without a row transpose. The charge model is layout-blind — charges
// depend only on the (spill, index, count) sequence of Append/ReadColsAt
// calls, never on how the bytes are arranged in host memory — so the
// stripe changes no ledger.
type Spill struct {
	dev   *Device
	pool  *BufferPool // non-nil when created through a pool (stats)
	width int64
	cap   int64 // 0 = grow on demand
	cols  [][]int32
	vols  []*Volume
	count int64
	freed bool

	backing  Backing // non-nil: payload comes from durable storage
	loadOnce sync.Once
	loadErr  error
}

// Backing supplies the payload of a durably stored, read-only spill: the
// rows live in segment files (see Segment) instead of being generated or
// appended, and are materialized on first read. Implementations are called
// at most once per spill (guarded by sync.Once), with dst holding one
// destination slice per column, each sized for exactly the records the
// spill was opened over.
type Backing interface {
	// ReadCols fills dst[c] with column c of n records starting at record
	// lo — the same column-striped layout the spill holds.
	ReadCols(dst [][]int32, lo, n int64) error
}

// NewBackedSpill opens a read-only spill whose payload is supplied by b —
// the device-resident view of a durable table. Device space is claimed up
// front without charging (the data already resides on the device, exactly
// like Preload), and the payload is materialized from b once, on first
// read; every read then charges the usual InitCom/UnitTr events, so a
// backed spill is indistinguishable from a preloaded one on the ledger.
// A failed load surfaces as a panic with the "storage:" prefix, which the
// executor's run recovery converts into an error.
func (d *Device) NewBackedSpill(width, records int64, b Backing) (*Spill, error) {
	if b == nil {
		return nil, fmt.Errorf("storage: nil backing")
	}
	if records < 0 {
		return nil, fmt.Errorf("storage: negative backed record count %d", records)
	}
	if width <= 0 || width%4 != 0 {
		return nil, fmt.Errorf("storage: spill width must be a positive multiple of 4, got %d", width)
	}
	capRecords := records
	if capRecords == 0 {
		capRecords = 1 // devices reject zero-capacity volumes
	}
	s := &Spill{dev: d, width: width, cap: capRecords, cols: make([][]int32, width/4)}
	vol, err := d.NewVolume(capRecords, width)
	if err != nil {
		return nil, err
	}
	s.vols = []*Volume{vol}
	for c := range s.cols {
		s.cols[c] = make([]int32, records)
	}
	s.backing = b
	s.install(records)
	return s, nil
}

// load materializes a backed spill's payload, once.
func (s *Spill) load() {
	s.loadOnce.Do(func() {
		s.loadErr = s.backing.ReadCols(s.cols, 0, s.count)
	})
	if s.loadErr != nil {
		panic(fmt.Sprintf("storage: backed spill load: %v", s.loadErr))
	}
}

// NewSpill allocates a spill file for records of width bytes on the
// device; capRecords == 0 means grow on demand.
func (d *Device) NewSpill(width, capRecords int64) (*Spill, error) {
	if width <= 0 || width%4 != 0 {
		return nil, fmt.Errorf("storage: spill width must be a positive multiple of 4, got %d", width)
	}
	s := &Spill{dev: d, width: width, cap: capRecords, cols: make([][]int32, width/4)}
	if capRecords > 0 {
		vol, err := d.NewVolume(capRecords, width)
		if err != nil {
			return nil, err
		}
		s.vols = []*Volume{vol}
	}
	return s, nil
}

// NewSpill allocates a spill file on dev and counts it in the pool stats.
func (p *BufferPool) NewSpill(dev *Device, width, capRecords int64) (*Spill, error) {
	s, err := dev.NewSpill(width, capRecords)
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

// Room reports whether n more records fit (always true for growable
// spills; device exhaustion surfaces on Append).
func (s *Spill) Room(n int64) bool {
	if s.cap <= 0 {
		return true
	}
	return s.count+n <= s.cap
}

// tail returns the volume with append room, allocating a growth chunk when
// needed.
func (s *Spill) tail() *Volume {
	if n := len(s.vols); n > 0 && s.vols[n-1].Count < s.vols[n-1].Cap {
		return s.vols[n-1]
	}
	if s.cap > 0 {
		// Fixed-capacity spill: report the overflow like the old volume
		// bounds check did.
		panic(fmt.Sprintf("storage: append exceeds spill capacity %d", s.cap))
	}
	vol, err := s.dev.NewVolume(spillChunkRecords, s.width)
	if err != nil {
		panic(fmt.Sprintf("storage: spill growth failed: %v", err))
	}
	s.vols = append(s.vols, vol)
	return vol
}

// install claims volume space for n records without charging.
func (s *Spill) install(n int64) {
	for n > 0 {
		vol := s.tail()
		take := vol.Cap - vol.Count
		if take > n {
			take = n
		}
		vol.Count += take
		s.count += take
		n -= take
	}
}

// reserve sizes a fixed-capacity spill's columns at its first append: the
// payload size is known, so each column is allocated once instead of being
// regrown (the executor's sort sections hammer this), and a spill that
// PreloadCols fills never allocates at all.
func (s *Spill) reserve() {
	if s.cap > 0 && cap(s.cols[0]) == 0 {
		for c := range s.cols {
			s.cols[c] = make([]int32, 0, s.cap)
		}
	}
}

// stripe splits row-major records into the column vectors.
func (s *Spill) stripe(recs []int32, n int64) {
	s.reserve()
	w := len(s.cols)
	if w == 1 {
		s.cols[0] = append(s.cols[0], recs...)
		return
	}
	for c := 0; c < w; c++ {
		col := s.cols[c]
		for i := int64(0); i < n; i++ {
			col = append(col, recs[i*int64(w)+int64(c)])
		}
		s.cols[c] = col
	}
}

// Append charges a write of the given row-major records (whole records
// only) to the caller's accounting strand.
func (s *Spill) Append(a *Acct, recs []int32) {
	if len(recs) == 0 {
		return
	}
	n := int64(len(recs)) * 4 / s.width
	at := s.room(n)
	s.stripe(recs, n)
	s.install(n)
	s.appended(a, at, n, 1, 0)
}

// AppendCols charges a write of rows records supplied as per-column
// vectors (cols[c][:rows]) — the executor's columnar batches append
// without a row detour. The charge sequence is identical to Append of the
// same records.
func (s *Spill) AppendCols(a *Acct, cols [][]int32, rows int64) {
	s.AppendBlocks(a, cols, rows, 1, 0)
}

// AppendBlocks is what n AppendCols calls of k records each, taken off
// cols[c][:k*n] one after the other and each preceded by a.CPU(the block's
// bytes, perByte), leave behind — a buffer of k records filled and evicted n
// times over — with the payload appended once and the strand charged in one
// go (see Acct.chargeAppends).
func (s *Spill) AppendBlocks(a *Acct, cols [][]int32, k, n int64, perByte float64) {
	if k <= 0 || n <= 0 {
		return
	}
	rows := k * n
	at := s.room(rows)
	s.reserve()
	for c := range s.cols {
		s.cols[c] = append(s.cols[c], cols[c][:rows]...)
	}
	s.install(rows)
	s.appended(a, at, k, n, perByte)
}

// room checks that n more records may be appended and returns the index the
// first of them will take.
func (s *Spill) room(n int64) int64 {
	if s.backing != nil {
		panic("storage: append to a backed (read-only) spill")
	}
	if s.cap > 0 && s.count+n > s.cap {
		panic(fmt.Sprintf("storage: append %d exceeds capacity %d (have %d)", n, s.cap, s.count))
	}
	return s.count
}

// appended charges n installed writes of k records from index at, and
// counts their bytes on the pool the spill came from.
func (s *Spill) appended(a *Acct, at, k, n int64, perByte float64) {
	a.chargeAppends(s, at, k, n, perByte)
	if s.pool != nil {
		s.pool.mu.Lock()
		s.pool.stats.SpillBytes += k * n * s.width
		s.pool.mu.Unlock()
	}
}

// Preload installs row-major records without charging I/O: the data
// already resides on the device when the run starts.
func (s *Spill) Preload(recs []int32) {
	if s.backing != nil {
		panic("storage: preload into a backed (read-only) spill")
	}
	n := int64(len(recs)) * 4 / s.width
	if s.cap > 0 && s.count+n > s.cap {
		panic(fmt.Sprintf("storage: preload %d exceeds capacity %d (have %d)", n, s.cap, s.count))
	}
	s.stripe(recs, n)
	s.install(n)
}

// PreloadCols is Preload for records already column-striped: cols[c] becomes
// column c of an empty spill as it stands — no transposition, no copy; the
// spill owns the vectors from here on, exactly as it owns what a backing
// loads. Columns that do not fit the spill are an error: they come from a
// caller's input, not from the executor's own arithmetic.
func (s *Spill) PreloadCols(cols [][]int32) error {
	if s.backing != nil {
		return fmt.Errorf("storage: preload into a backed (read-only) spill")
	}
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
	if s.cap > 0 && n > s.cap {
		return fmt.Errorf("storage: preload %d exceeds capacity %d", n, s.cap)
	}
	copy(s.cols, cols)
	s.install(n)
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
	if s.backing != nil {
		s.load()
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

// Reset empties the spill for reuse.
func (s *Spill) Reset() {
	if s.backing != nil {
		panic("storage: reset of a backed (read-only) spill")
	}
	for _, vol := range s.vols {
		vol.Count = 0
	}
	s.count = 0
	for c := range s.cols {
		s.cols[c] = s.cols[c][:0]
	}
}

// Free returns the spill's device space (and host memory). A cancelled or
// completed run frees its scratch spills so the device's live allocation
// drops back; using a freed spill is a bug.
func (s *Spill) Free() {
	if s == nil || s.freed {
		return
	}
	s.freed = true
	var bytes int64
	for _, vol := range s.vols {
		bytes += vol.Cap * vol.Width
	}
	if bytes > 0 {
		s.dev.free(bytes)
	}
	s.vols = nil
	s.count = 0
	s.cols = nil
}
