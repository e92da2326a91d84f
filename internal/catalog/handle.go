package catalog

import (
	"fmt"
	"path/filepath"

	"ocas/internal/storage"
)

// Handle is a consistent read snapshot of one table: the segment readers
// open at OpenTable time plus a copy of the then-buffered rows. Concurrent
// ingest or even a Drop does not disturb a handle mid-scan (open
// descriptors survive the unlink). A Handle implements storage.Backing
// through ReadCols, so it plugs straight into Device.NewBackedSpill /
// exec.NewBackedTable — segment chunks stream into the spill's column
// vectors without a row transpose.
//
// ReadRecords and ReadCols are not safe for concurrent calls on one Handle
// (segment readers share a scratch buffer); the executor satisfies this by
// materializing a backed spill's payload exactly once behind a sync.Once.
type Handle struct {
	name  string
	arity int
	rows  int64
	segs  []*storage.Segment
	bases []int64 // starting row of each segment
	buf   []int32 // copy of rows buffered at snapshot time
}

// OpenTable opens a read snapshot of the named table.
func (c *Catalog) OpenTable(name string) (*Handle, error) {
	c.mu.Lock()
	t, ok := c.man.Tables[name]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	metas := append([]SegmentMeta(nil), t.Segments...)
	buf := append([]int32(nil), c.buf[name]...)
	arity := t.Schema.Arity()
	dir := c.dir
	c.mu.Unlock()

	h := &Handle{name: name, arity: arity, buf: buf}
	for _, m := range metas {
		seg, err := storage.OpenSegment(filepath.Join(dir, m.File))
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("catalog: open segment %s: %w", m.File, err)
		}
		if seg.Cols() != arity || seg.Rows() != m.Rows {
			h.Close()
			seg.Close()
			return nil, fmt.Errorf("catalog: segment %s shape %dx%d does not match manifest %dx%d",
				m.File, seg.Rows(), seg.Cols(), m.Rows, arity)
		}
		h.bases = append(h.bases, h.rows)
		h.segs = append(h.segs, seg)
		h.rows += seg.Rows()
	}
	h.rows += int64(len(buf) / arity)
	return h, nil
}

// Name returns the table name the handle snapshots.
func (h *Handle) Name() string { return h.name }

// Rows returns the snapshot's total row count (durable + buffered).
func (h *Handle) Rows() int64 { return h.rows }

// Arity returns the number of int32 columns per row.
func (h *Handle) Arity() int { return h.arity }

// ReadRecords fills dst with n rows starting at row lo, row-major, reading
// across segment boundaries and into the buffered tail.
func (h *Handle) ReadRecords(dst []int32, lo, n int64) error {
	if lo < 0 || n < 0 || lo+n > h.rows {
		return fmt.Errorf("catalog: read [%d,%d) out of %d rows", lo, lo+n, h.rows)
	}
	cols := int64(h.arity)
	for i, seg := range h.segs {
		if n == 0 {
			return nil
		}
		base := h.bases[i]
		if lo >= base+seg.Rows() {
			continue
		}
		in := lo - base
		take := seg.Rows() - in
		if take > n {
			take = n
		}
		if err := seg.ReadRows(dst[:take*cols], in, take); err != nil {
			return err
		}
		dst = dst[take*cols:]
		lo += take
		n -= take
	}
	if n > 0 {
		durable := h.rows - int64(len(h.buf))/cols
		in := (lo - durable) * cols
		copy(dst, h.buf[in:in+n*cols])
	}
	return nil
}

// ReadCols fills dst[c] with column c of n rows starting at row lo,
// reading across segment boundaries and into the buffered tail. It
// implements storage.Backing: segment chunks are already column-major, so
// durable rows reach the destination vectors without a transpose.
func (h *Handle) ReadCols(dst [][]int32, lo, n int64) error {
	if lo < 0 || n < 0 || lo+n > h.rows {
		return fmt.Errorf("catalog: read [%d,%d) out of %d rows", lo, lo+n, h.rows)
	}
	if len(dst) < h.arity {
		return fmt.Errorf("catalog: read dst %d columns, table has %d", len(dst), h.arity)
	}
	cols := int64(h.arity)
	out := int64(0)
	sub := make([][]int32, h.arity)
	for i, seg := range h.segs {
		if n == 0 {
			return nil
		}
		base := h.bases[i]
		if lo >= base+seg.Rows() {
			continue
		}
		in := lo - base
		take := seg.Rows() - in
		if take > n {
			take = n
		}
		for c := range sub {
			sub[c] = dst[c][out : out+take]
		}
		if err := seg.ReadCols(sub, in, take); err != nil {
			return err
		}
		out += take
		lo += take
		n -= take
	}
	if n > 0 {
		durable := h.rows - int64(len(h.buf))/cols
		in := lo - durable
		for c := int64(0); c < cols; c++ {
			d := dst[c][out : out+n]
			for r := int64(0); r < n; r++ {
				d[r] = h.buf[(in+r)*cols+c]
			}
		}
	}
	return nil
}

// Close releases the handle's segment readers.
func (h *Handle) Close() error {
	var firstErr error
	for _, seg := range h.segs {
		if err := seg.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	h.segs = nil
	return firstErr
}
