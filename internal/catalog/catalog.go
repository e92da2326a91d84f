// Package catalog is the durable table layer: named tables with typed int32
// column schemas, stored as columnar segment files (storage.Segment) under
// one data directory, described by a versioned manifest persisted as atomic
// JSON. It turns the executor from a scanner of generated rows into a
// scanner of ingested ones — plan.RunProgram resolves scan inputs by table
// name through a Catalog, opening snapshot handles whose reads flow through
// the same Spill/BufferPool substrate and charge the same InitCom/UnitTr
// events as generated inputs, so the PR 5 determinism contract (digest,
// ledger, virtual clock identical across worker counts) holds unchanged for
// durable scans.
//
// Ingest is batch-oriented and columnar: AppendCols key-sorts each batch of
// column vectors on the declared sort key (stable, so pre-sorted loads keep
// their order), buffers the columns in memory, and flushes whole segments
// once the buffer reaches the flush threshold; Close flushes the remainder.
// Rows buffered but not yet flushed are volatile across a crash — a graceful
// shutdown (Catalog.Close, which ocasd performs on SIGTERM) makes everything
// durable.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"ocas/internal/storage"
)

const (
	manifestName    = "manifest.json"
	manifestVersion = 1

	// DefaultFlushRows is the buffered-row threshold at which ingest cuts a
	// segment.
	DefaultFlushRows = 64 << 10

	// MaxColumns bounds a table schema.
	MaxColumns = 32
)

var nameRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_-]{0,63}$`)

// The conditions a caller tells apart with errors.Is; every other error of
// a mutation is the file system's.
var (
	ErrNoTable = errors.New("table does not exist")
	ErrExists  = errors.New("table already exists")
	ErrClosed  = errors.New("catalog closed")
	ErrShape   = errors.New("batch does not fit the schema")
)

// Column is one schema column. The only supported type is "int32" — the
// executor's universal cell type.
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Schema declares a table's columns and its sort key: indices into Columns,
// most significant first. Ingest keeps every flushed segment sorted on the
// key (stable sort, so equal-key rows keep arrival order).
type Schema struct {
	Columns []Column `json:"columns"`
	Key     []int    `json:"key,omitempty"`
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Columns) }

// Validate checks column count, names, types and key indices.
func (s Schema) Validate() error {
	if len(s.Columns) == 0 || len(s.Columns) > MaxColumns {
		return fmt.Errorf("catalog: schema must have 1..%d columns, got %d", MaxColumns, len(s.Columns))
	}
	seen := map[string]bool{}
	for i, c := range s.Columns {
		if !nameRE.MatchString(c.Name) {
			return fmt.Errorf("catalog: column %d has invalid name %q", i, c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("catalog: duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Type != "" && c.Type != "int32" {
			return fmt.Errorf("catalog: column %q has unsupported type %q (only int32)", c.Name, c.Type)
		}
	}
	keySeen := map[int]bool{}
	for _, k := range s.Key {
		if k < 0 || k >= len(s.Columns) {
			return fmt.Errorf("catalog: key column index %d out of range", k)
		}
		if keySeen[k] {
			return fmt.Errorf("catalog: duplicate key column index %d", k)
		}
		keySeen[k] = true
	}
	return nil
}

// SegmentMeta describes one durable segment file of a table.
type SegmentMeta struct {
	// File is the segment's file name, relative to the catalog directory.
	File string `json:"file"`
	Rows int64  `json:"rows"`
	// MinKey/MaxKey bound the first key column's values in this segment
	// (zero for keyless tables) — the sorted-order metadata a future range
	// pruner reads.
	MinKey int32 `json:"minKey"`
	MaxKey int32 `json:"maxKey"`
}

// TableMeta is a table's durable description in the manifest.
type TableMeta struct {
	Name     string        `json:"name"`
	Schema   Schema        `json:"schema"`
	Segments []SegmentMeta `json:"segments"`
	// Seq numbers the next segment file (monotonic, never reused).
	Seq int64 `json:"seq"`
	// Version bumps on every mutation of this table (create, ingest batch,
	// flush).
	Version int64 `json:"version"`
}

type manifest struct {
	Version int                   `json:"version"`
	Rev     int64                 `json:"rev"`
	Tables  map[string]*TableMeta `json:"tables"`
}

// Options configures a Catalog.
type Options struct {
	// FlushRows is the buffered-row threshold per table at which ingest
	// flushes a segment (<= 0: DefaultFlushRows).
	FlushRows int64
	// ChunkRows is the columnar chunk size of written segments (<= 0:
	// storage.DefaultChunkRows).
	ChunkRows int64
}

// Stats is a counters snapshot for /stats.
type Stats struct {
	Tables         int   `json:"tables"`
	Rows           int64 `json:"rows"` // durable + buffered
	Segments       int   `json:"segments"`
	BufferedRows   int64 `json:"bufferedRows"`
	IngestedRows   int64 `json:"ingestedRows"`   // since open
	SegmentFlushes int64 `json:"segmentFlushes"` // since open
	Rev            int64 `json:"rev"`
}

// TableInfo is one table's listing entry.
type TableInfo struct {
	Name         string `json:"name"`
	Schema       Schema `json:"schema"`
	Rows         int64  `json:"rows"` // durable + buffered
	Segments     int    `json:"segments"`
	BufferedRows int64  `json:"bufferedRows"`
	Version      int64  `json:"version"`
}

// Catalog is the set of durable tables under one data directory. All
// methods are safe for concurrent use; mutations serialize on one mutex and
// persist the manifest atomically (write-temp + rename) before returning.
type Catalog struct {
	dir  string
	opts Options

	mu       sync.Mutex
	man      manifest
	buf      map[string][][]int32 // unflushed rows per table, one vector per column
	ingested int64
	flushes  int64
	closed   bool
}

// Open loads (or initializes) the catalog rooted at dir, creating the
// directory when missing. A missing manifest is an empty catalog, not an
// error.
func Open(dir string, opts Options) (*Catalog, error) {
	if opts.FlushRows <= 0 {
		opts.FlushRows = DefaultFlushRows
	}
	if opts.ChunkRows <= 0 {
		opts.ChunkRows = storage.DefaultChunkRows
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Catalog{
		dir:  dir,
		opts: opts,
		man:  manifest{Version: manifestVersion, Tables: map[string]*TableMeta{}},
		buf:  map[string][][]int32{},
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		return c, nil
	case err != nil:
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("catalog: corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("catalog: manifest version %d unsupported (want %d)", m.Version, manifestVersion)
	}
	if m.Tables == nil {
		m.Tables = map[string]*TableMeta{}
	}
	c.man = m
	return c, nil
}

// Dir returns the catalog's data directory.
func (c *Catalog) Dir() string { return c.dir }

// saveLocked persists the manifest atomically: marshal, write to a temp
// file, rename over the live one (the plancache persistence idiom). Rev
// counts the manifests that reached the disk.
func (c *Catalog) saveLocked() (err error) {
	c.man.Rev++
	defer func() {
		if err != nil {
			c.man.Rev--
		}
	}()
	data, err := json.MarshalIndent(&c.man, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(c.dir, manifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// tableLocked looks a table up for a mutation.
func (c *Catalog) tableLocked(name string) (*TableMeta, error) {
	if c.closed {
		return nil, fmt.Errorf("catalog: %w", ErrClosed)
	}
	t, ok := c.man.Tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: %q: %w", name, ErrNoTable)
	}
	return t, nil
}

// Create registers a new empty table. The schema must validate and the name
// must be fresh.
func (c *Catalog) Create(name string, schema Schema) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("catalog: invalid table name %q", name)
	}
	if err := schema.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("catalog: %w", ErrClosed)
	}
	if _, ok := c.man.Tables[name]; ok {
		return fmt.Errorf("catalog: %q: %w", name, ErrExists)
	}
	c.man.Tables[name] = &TableMeta{Name: name, Schema: schema, Version: 1}
	if err := c.saveLocked(); err != nil {
		delete(c.man.Tables, name)
		return err
	}
	return nil
}

// Drop removes a table: its manifest entry, buffered rows, and segment
// files. Handles opened before the drop keep reading their snapshot (open
// file descriptors survive the unlink on unix).
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, err := c.tableLocked(name)
	if err != nil {
		return err
	}
	delete(c.man.Tables, name)
	if err := c.saveLocked(); err != nil {
		c.man.Tables[name] = t
		return err
	}
	delete(c.buf, name)
	for _, seg := range t.Segments {
		os.Remove(filepath.Join(c.dir, seg.File))
	}
	return nil
}

// List returns every table's info, sorted by name.
func (c *Catalog) List() []TableInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TableInfo, 0, len(c.man.Tables))
	for name := range c.man.Tables {
		out = append(out, c.infoLocked(name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Info returns one table's info.
func (c *Catalog) Info(name string) (TableInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.man.Tables[name]; !ok {
		return TableInfo{}, false
	}
	return c.infoLocked(name), true
}

func (c *Catalog) infoLocked(name string) TableInfo {
	t := c.man.Tables[name]
	info := TableInfo{
		Name:     t.Name,
		Schema:   t.Schema,
		Segments: len(t.Segments),
		Version:  t.Version,
	}
	for _, seg := range t.Segments {
		info.Rows += seg.Rows
	}
	info.BufferedRows = colRows(c.buf[name])
	info.Rows += info.BufferedRows
	return info
}

// colRows is the row count of a table's buffer — the rows not yet in a
// segment: nil when empty, else one vector per column.
func colRows(cols [][]int32) int64 {
	if cols == nil {
		return 0
	}
	return int64(len(cols[0]))
}

// Appended reports one ingested batch.
type Appended struct {
	Rows    int64 // the table's new total, durable + buffered
	Sorted  bool  // the batch arrived in key order
	Flushed int64 // segments cut before the call returned
}

// AppendCols ingests a batch of rows given as one vector per column, all of
// one length, and takes ownership of the vectors. The batch is stable-sorted
// on the declared key, appended to the table's in-memory buffer, and every
// full flush threshold is cut into a durable segment before AppendCols
// returns. A batch is ingested whole or not at all: when a segment or the
// manifest cannot be written, the table, its buffer and the counters are as
// before the call.
func (c *Catalog) AppendCols(name string, cols [][]int32) (res Appended, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, err := c.tableLocked(name)
	if err != nil {
		return res, err
	}
	if len(cols) != t.Schema.Arity() {
		return res, fmt.Errorf("catalog: batch of %d columns for a table of %d: %w", len(cols), t.Schema.Arity(), ErrShape)
	}
	n := len(cols[0])
	for i, col := range cols {
		if len(col) != n {
			return res, fmt.Errorf("catalog: batch column %d holds %d values, column 0 holds %d: %w", i, len(col), n, ErrShape)
		}
	}
	res.Sorted = true
	if n > 0 {
		cols, res.Sorted = sortCols(cols, t.Schema.Key)
		st := c.stageLocked(t)
		if st.buf == nil {
			st.buf = cols
		} else {
			// Appending past a vector's length never touches what a
			// snapshot sharing it can see, and a failed ingest leaves the
			// catalog's own lengths where they were.
			st.buf = append([][]int32(nil), st.buf...)
			for i := range st.buf {
				st.buf[i] = append(st.buf[i], cols[i]...)
			}
		}
		st.meta.Version++
		for colRows(st.buf) >= c.opts.FlushRows {
			if err := st.cut(c, c.opts.FlushRows); err != nil {
				st.discard(c)
				return res, err
			}
		}
		if err := c.commitLocked(t, st); err != nil {
			return res, err
		}
		c.ingested += int64(n)
		res.Flushed = st.flushes
	}
	res.Rows = c.infoLocked(name).Rows
	return res, nil
}

// Append is AppendCols for a batch laid out record by record (a multiple of
// the table's arity). benchmark/trace.go replays ingest through it; the
// product decodes straight into columns.
func (c *Catalog) Append(name string, rows []int32) (total int64, err error) {
	c.mu.Lock()
	t, err := c.tableLocked(name)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	arity := t.Schema.Arity()
	c.mu.Unlock()
	if len(rows)%arity != 0 {
		return 0, fmt.Errorf("catalog: batch of %d values is not a multiple of arity %d: %w", len(rows), arity, ErrShape)
	}
	cols := make([][]int32, arity)
	for c := range cols {
		cols[c] = make([]int32, len(rows)/arity)
		for r := range cols[c] {
			cols[c][r] = rows[r*arity+c]
		}
	}
	res, err := c.AppendCols(name, cols)
	return res.Rows, err
}

// Flush forces the table's buffered rows into a durable segment.
func (c *Catalog) Flush(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, err := c.tableLocked(name)
	if err != nil {
		return err
	}
	rows := colRows(c.buf[name])
	if rows == 0 {
		return nil
	}
	st := c.stageLocked(t)
	if err := st.cut(c, rows); err != nil {
		return err
	}
	return c.commitLocked(t, st)
}

// staged is the next state of one table while a mutation writes its
// segments: nothing of the catalog changes until commitLocked installs it.
type staged struct {
	meta    TableMeta
	buf     [][]int32
	flushes int64
}

func (c *Catalog) stageLocked(t *TableMeta) *staged {
	return &staged{meta: *t, buf: c.buf[t.Name]}
}

// cut writes the first rows buffered rows as the table's next segment file.
// The rows are stable-sorted on the key first (concatenated sorted batches
// flatten into one sorted run; a single batch is in order already), so every
// segment is a sorted run with honest MinKey/MaxKey bounds. The buffered
// vectors are only read — the sort and the remainder land in fresh ones.
func (st *staged) cut(c *Catalog, rows int64) error {
	key := st.meta.Schema.Key
	head := make([][]int32, len(st.buf))
	for i, col := range st.buf {
		head[i] = col[:rows]
	}
	head, _ = sortCols(head, key)
	file := fmt.Sprintf("%s-%06d.seg", st.meta.Name, st.meta.Seq)
	if err := storage.WriteSegmentCols(filepath.Join(c.dir, file), head, c.opts.ChunkRows); err != nil {
		return err
	}
	seg := SegmentMeta{File: file, Rows: rows}
	if len(key) > 0 && rows > 0 {
		seg.MinKey, seg.MaxKey = head[key[0]][0], head[key[0]][rows-1]
	}
	st.meta.Segments = append(st.meta.Segments[:len(st.meta.Segments):len(st.meta.Segments)], seg)
	st.meta.Seq++
	st.meta.Version++
	st.flushes++
	if colRows(st.buf) == rows {
		st.buf = nil
		return nil
	}
	rest := make([][]int32, len(st.buf))
	for i, col := range st.buf {
		rest[i] = append([]int32(nil), col[rows:]...)
	}
	st.buf = rest
	return nil
}

// discard removes the segment files a staged state wrote.
func (st *staged) discard(c *Catalog) {
	for _, seg := range st.meta.Segments[len(st.meta.Segments)-int(st.flushes):] {
		os.Remove(filepath.Join(c.dir, seg.File))
	}
}

// installLocked makes a staged state the table's.
func (c *Catalog) installLocked(t *TableMeta, st *staged) {
	*t = st.meta
	if st.buf == nil {
		delete(c.buf, t.Name)
	} else {
		c.buf[t.Name] = st.buf
	}
}

// commitLocked installs a staged state and persists the manifest; when that
// fails the table is as it was and the staged segment files are gone.
func (c *Catalog) commitLocked(t *TableMeta, st *staged) error {
	old := staged{meta: *t, buf: c.buf[t.Name]}
	c.installLocked(t, st)
	if err := c.saveLocked(); err != nil {
		c.installLocked(t, &old)
		st.discard(c)
		return err
	}
	c.flushes += st.flushes
	return nil
}

// Close flushes every table's buffered rows into segments and persists the
// manifest. The catalog rejects mutations afterwards.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	var firstErr error
	for name := range c.buf {
		t := c.man.Tables[name]
		st := c.stageLocked(t)
		if err := st.cut(c, colRows(c.buf[name])); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.installLocked(t, st)
		c.flushes += st.flushes
	}
	if err := c.saveLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	c.closed = true
	return firstErr
}

// Stats returns the counters snapshot.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Tables:         len(c.man.Tables),
		IngestedRows:   c.ingested,
		SegmentFlushes: c.flushes,
		Rev:            c.man.Rev,
	}
	for name, t := range c.man.Tables {
		s.Segments += len(t.Segments)
		for _, seg := range t.Segments {
			s.Rows += seg.Rows
		}
		b := colRows(c.buf[name])
		s.BufferedRows += b
		s.Rows += b
	}
	return s
}
