package catalog

import (
	"fmt"
	"path/filepath"

	"ocas/internal/storage"
)

// Handle is a consistent read snapshot of one table: the segment readers
// open at OpenTable time plus the then-buffered rows, whose vectors it shares
// with the catalog (ingest never rewrites a buffered value; it appends past
// the snapshot's lengths or moves on to fresh vectors). Concurrent ingest or
// even a Drop does not disturb a handle mid-scan (open descriptors survive
// the unlink). A Handle implements storage.Backing through ReadCols, so it
// plugs straight into Device.NewBackedSpill / exec.NewBackedTable — segment
// chunks and the buffered tail stream into the spill's column vectors as
// they are.
//
// ReadCols is not safe for concurrent calls on one Handle (segment readers
// share a scratch buffer); the executor satisfies this by materializing a
// backed spill's payload exactly once behind a sync.Once.
type Handle struct {
	name  string
	arity int
	rows  int64
	segs  []*storage.Segment
	bases []int64   // starting row of each segment
	buf   [][]int32 // rows buffered at snapshot time, one vector per column
}

// OpenTable opens a read snapshot of the named table.
func (c *Catalog) OpenTable(name string) (*Handle, error) {
	c.mu.Lock()
	t, ok := c.man.Tables[name]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("catalog: %q: %w", name, ErrNoTable)
	}
	metas := append([]SegmentMeta(nil), t.Segments...)
	buf := append([][]int32(nil), c.buf[name]...)
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
	h.rows += colRows(buf)
	return h, nil
}

// Name returns the table name the handle snapshots.
func (h *Handle) Name() string { return h.name }

// Rows returns the snapshot's total row count (durable + buffered).
func (h *Handle) Rows() int64 { return h.rows }

// Arity returns the number of int32 columns per row.
func (h *Handle) Arity() int { return h.arity }

// ReadRecords is ReadCols for a destination laid out record by record.
// benchmark/trace.go reads a probe batch through it; the product reads
// columns.
func (h *Handle) ReadRecords(dst []int32, lo, n int64) error {
	cols := make([][]int32, h.arity)
	for c := range cols {
		cols[c] = make([]int32, max(n, 0))
	}
	if err := h.ReadCols(cols, lo, n); err != nil {
		return err
	}
	for c, col := range cols {
		for r, v := range col {
			dst[r*h.arity+c] = v
		}
	}
	return nil
}

// ReadCols fills dst[c] with column c of n rows starting at row lo,
// reading across segment boundaries and into the buffered tail. It
// implements storage.Backing.
func (h *Handle) ReadCols(dst [][]int32, lo, n int64) error {
	if lo < 0 || n < 0 || lo+n > h.rows {
		return fmt.Errorf("catalog: read [%d,%d) out of %d rows", lo, lo+n, h.rows)
	}
	if len(dst) < h.arity {
		return fmt.Errorf("catalog: read dst %d columns, table has %d", len(dst), h.arity)
	}
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
		in := lo - (h.rows - colRows(h.buf))
		for c, col := range h.buf {
			copy(dst[c][out:out+n], col[in:in+n])
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
