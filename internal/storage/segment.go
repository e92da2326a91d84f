package storage

import (
	"encoding/binary"
	"fmt"
	"os"
)

// Segment file format (version 1, all values little-endian):
//
//	header  32 bytes:  magic "OCSG" | u32 version | u32 cols | u32 chunkRows
//	                   | u64 rows | u32 reserved
//	payload:           ceil(rows/chunkRows) chunks, each holding the next
//	                   chunkRows rows (the last chunk may be short). Within a
//	                   chunk the layout is column-major: cols consecutive
//	                   runs of int32, one per column, each as long as the
//	                   chunk's row count.
//
// Fixed-size chunks keep the row→offset mapping arithmetic (no per-chunk
// index), while the column-major interior keeps each column's values
// contiguous per chunk — the classic PAX layout.
const (
	segmentMagic   = 0x4753434f // "OCSG"
	segmentVersion = 1
	segmentHeader  = 32

	// DefaultChunkRows is the segment writer's default rows-per-chunk.
	DefaultChunkRows = 8 << 10

	maxSegmentCols = 1 << 10
)

// WriteSegmentCols writes cols (one vector per column, all of one length) as
// a columnar segment file at path, atomically: the payload lands in
// path+".tmp" and is renamed into place after a successful sync, so a crash
// mid-write never leaves a half-segment behind. chunkRows <= 0 selects
// DefaultChunkRows. The vectors are only read.
func WriteSegmentCols(path string, cols [][]int32, chunkRows int64) (err error) {
	if len(cols) == 0 || len(cols) > maxSegmentCols {
		return fmt.Errorf("storage: segment cols %d out of range [1,%d]", len(cols), maxSegmentCols)
	}
	nRows := int64(len(cols[0]))
	for c, col := range cols {
		if int64(len(col)) != nRows {
			return fmt.Errorf("storage: segment column %d holds %d values, column 0 holds %d", c, len(col), nRows)
		}
	}
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	hdr := make([]byte, segmentHeader)
	binary.LittleEndian.PutUint32(hdr[0:], segmentMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segmentVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(cols)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(chunkRows))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(nRows))
	if _, err = f.Write(hdr); err != nil {
		return err
	}

	// One write per chunk through one reusable buffer: each column's run of
	// the chunk is encoded in place, a plain copy on little-endian hosts.
	buf := make([]byte, 0, min(chunkRows, nRows)*int64(len(cols))*4)
	for lo := int64(0); lo < nRows; lo += chunkRows {
		rc := min(chunkRows, nRows-lo)
		buf = buf[:rc*int64(len(cols))*4]
		for c, col := range cols {
			run, dst := col[lo:lo+rc], buf[int64(c)*rc*4:]
			if hostLittleEndian {
				copy(dst, int32Bytes(run))
				continue
			}
			for r, v := range run {
				binary.LittleEndian.PutUint32(dst[r*4:], uint32(v))
			}
		}
		if _, err = f.Write(buf); err != nil {
			return err
		}
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// WriteSegment is WriteSegmentCols for rows laid out record by record
// (len(rows) = nRows*cols values). benchmark/trace.go times it; the product
// writes segments from columns.
func WriteSegment(path string, cols int, chunkRows int64, rows []int32) error {
	if cols <= 0 || cols > maxSegmentCols {
		return fmt.Errorf("storage: segment cols %d out of range [1,%d]", cols, maxSegmentCols)
	}
	if len(rows)%cols != 0 {
		return fmt.Errorf("storage: segment payload %d values is not a multiple of %d columns", len(rows), cols)
	}
	vecs := make([][]int32, cols)
	n := len(rows) / cols
	for c := range vecs {
		vecs[c] = make([]int32, n)
		for r := range vecs[c] {
			vecs[c][r] = rows[r*cols+c]
		}
	}
	return WriteSegmentCols(path, vecs, chunkRows)
}

// Segment is a read-only reader over one durable columnar segment file.
// Reads share one scratch buffer, so callers serialize them.
type Segment struct {
	f         *os.File
	rows      int64
	cols      int
	chunkRows int64
	scratch   []byte
}

// OpenSegment opens a segment file for reading and validates its header
// against the file size.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := readSegmentHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func readSegmentHeader(f *os.File) (*Segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, segmentHeader)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("storage: segment header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != segmentMagic {
		return nil, fmt.Errorf("storage: not a segment file (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != segmentVersion {
		return nil, fmt.Errorf("storage: segment version %d unsupported (want %d)", v, segmentVersion)
	}
	cols := int(binary.LittleEndian.Uint32(hdr[8:]))
	chunkRows := int64(binary.LittleEndian.Uint32(hdr[12:]))
	rows := int64(binary.LittleEndian.Uint64(hdr[16:]))
	if cols <= 0 || cols > maxSegmentCols || chunkRows <= 0 || rows < 0 {
		return nil, fmt.Errorf("storage: segment header out of range (cols=%d chunkRows=%d rows=%d)", cols, chunkRows, rows)
	}
	// By division: rows*cols*4 overflows int64 for a corrupt row count.
	if payload := st.Size() - segmentHeader; rows > payload/(int64(cols)*4) {
		return nil, fmt.Errorf("storage: segment truncated: %d payload bytes, header claims %d rows of %d columns", payload, rows, cols)
	}
	// No read spans more than one chunk's column run, nor more than the
	// segment's rows — which the file size just bounded.
	return &Segment{
		f:         f,
		rows:      rows,
		cols:      cols,
		chunkRows: chunkRows,
		scratch:   make([]byte, min(chunkRows, rows)*4),
	}, nil
}

// Rows returns the number of rows stored.
func (s *Segment) Rows() int64 { return s.rows }

// Cols returns the number of int32 columns per row.
func (s *Segment) Cols() int { return s.cols }

// chunkOffset returns the byte offset of chunk c's payload. Every chunk
// before the last is full, so the mapping is pure arithmetic.
func (s *Segment) chunkOffset(c int64) int64 {
	return segmentHeader + c*s.chunkRows*int64(s.cols)*4
}

// ReadCols fills dst[c] (each len >= n) with column c of n rows starting
// at row lo: one contiguous read per column and chunk.
func (s *Segment) ReadCols(dst [][]int32, lo, n int64) error {
	if lo < 0 || n < 0 || lo+n > s.rows {
		return fmt.Errorf("storage: segment read [%d,%d) out of %d rows", lo, lo+n, s.rows)
	}
	if len(dst) < s.cols {
		return fmt.Errorf("storage: segment read dst %d columns, need %d", len(dst), s.cols)
	}
	for col := 0; col < s.cols; col++ {
		if int64(len(dst[col])) < n {
			return fmt.Errorf("storage: segment read dst column %d holds %d values, need %d", col, len(dst[col]), n)
		}
	}
	out := int64(0)
	for n > 0 {
		c := lo / s.chunkRows
		chunkLo := c * s.chunkRows
		rc := s.chunkRows // rows resident in this chunk
		if chunkLo+rc > s.rows {
			rc = s.rows - chunkLo
		}
		in := lo - chunkLo // first wanted row within the chunk
		take := rc - in
		if take > n {
			take = n
		}
		// On little-endian hosts the file bytes are the destination's
		// in-memory image, so the read lands directly in the column (no
		// scratch pass, no per-value decode).
		for col := int64(0); col < int64(s.cols); col++ {
			off := s.chunkOffset(c) + (col*rc+in)*4
			d := dst[col][out : out+take]
			if hostLittleEndian {
				if _, err := s.f.ReadAt(int32Bytes(d), off); err != nil {
					return fmt.Errorf("storage: segment read: %w", err)
				}
				continue
			}
			buf := s.scratch[:take*4]
			if _, err := s.f.ReadAt(buf, off); err != nil {
				return fmt.Errorf("storage: segment read: %w", err)
			}
			for r := int64(0); r < take; r++ {
				d[r] = int32(binary.LittleEndian.Uint32(buf[r*4:]))
			}
		}
		out += take
		lo += take
		n -= take
	}
	return nil
}

// Close releases the underlying file.
func (s *Segment) Close() error { return s.f.Close() }
