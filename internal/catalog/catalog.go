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
// Ingest is batch-oriented: Append key-sorts each batch on the declared
// sort key (stable, so pre-sorted loads keep their order), buffers rows in
// memory, and flushes whole segments once the buffer reaches the flush
// threshold; Close flushes the remainder. Rows buffered but not yet flushed
// are volatile across a crash — a graceful shutdown (Catalog.Close, which
// ocasd performs on SIGTERM) makes everything durable.
package catalog

import (
	"encoding/json"
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
	buf      map[string][]int32 // unflushed row-major rows per table
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
		buf:  map[string][]int32{},
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
// file, rename over the live one (the plancache persistence idiom).
func (c *Catalog) saveLocked() error {
	c.man.Rev++
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
		return fmt.Errorf("catalog: closed")
	}
	if _, ok := c.man.Tables[name]; ok {
		return fmt.Errorf("catalog: table %q already exists", name)
	}
	c.man.Tables[name] = &TableMeta{Name: name, Schema: schema, Version: 1}
	return c.saveLocked()
}

// Drop removes a table: its manifest entry, buffered rows, and segment
// files. Handles opened before the drop keep reading their snapshot (open
// file descriptors survive the unlink on unix).
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("catalog: closed")
	}
	t, ok := c.man.Tables[name]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.man.Tables, name)
	delete(c.buf, name)
	if err := c.saveLocked(); err != nil {
		return err
	}
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
	info.BufferedRows = int64(len(c.buf[name])) / int64(t.Schema.Arity())
	info.Rows += info.BufferedRows
	return info
}

// Append ingests a batch of rows (row-major flat int32 values, a multiple
// of the table's arity). The batch is stable-sorted on the declared key,
// appended to the table's in-memory buffer, and any full flush thresholds
// are cut into durable segments before Append returns. It reports the new
// total row count.
func (c *Catalog) Append(name string, rows []int32) (total int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, fmt.Errorf("catalog: closed")
	}
	t, ok := c.man.Tables[name]
	if !ok {
		return 0, fmt.Errorf("catalog: table %q does not exist", name)
	}
	arity := t.Schema.Arity()
	if len(rows)%arity != 0 {
		return 0, fmt.Errorf("catalog: batch of %d values is not a multiple of arity %d", len(rows), arity)
	}
	n := int64(len(rows) / arity)
	if n > 0 {
		batch := append([]int32(nil), rows...)
		sortRows(batch, arity, t.Schema.Key)
		c.buf[name] = append(c.buf[name], batch...)
		c.ingested += n
		t.Version++
		for int64(len(c.buf[name]))/int64(arity) >= c.opts.FlushRows {
			if err := c.flushLocked(t, c.opts.FlushRows); err != nil {
				return 0, err
			}
		}
		if err := c.saveLocked(); err != nil {
			return 0, err
		}
	}
	return c.infoLocked(name).Rows, nil
}

// Flush forces the table's buffered rows into a durable segment.
func (c *Catalog) Flush(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("catalog: closed")
	}
	t, ok := c.man.Tables[name]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	if len(c.buf[name]) == 0 {
		return nil
	}
	rows := int64(len(c.buf[name])) / int64(t.Schema.Arity())
	if err := c.flushLocked(t, rows); err != nil {
		return err
	}
	return c.saveLocked()
}

// flushLocked cuts the first rows buffered rows of t into a segment file.
// The flushed slice is stable-sorted on the key (concatenated sorted
// batches flatten into one sorted run), so every segment is a sorted run
// with honest MinKey/MaxKey bounds.
func (c *Catalog) flushLocked(t *TableMeta, rows int64) error {
	arity := t.Schema.Arity()
	vals := rows * int64(arity)
	flat := c.buf[t.Name][:vals]
	sortRows(flat, arity, t.Schema.Key)

	file := fmt.Sprintf("%s-%06d.seg", t.Name, t.Seq)
	if err := storage.WriteSegment(filepath.Join(c.dir, file), arity, c.opts.ChunkRows, flat); err != nil {
		return err
	}
	meta := SegmentMeta{File: file, Rows: rows}
	if len(t.Schema.Key) > 0 && rows > 0 {
		k := t.Schema.Key[0]
		meta.MinKey = flat[k]
		meta.MaxKey = flat[(rows-1)*int64(arity)+int64(k)]
	}
	t.Segments = append(t.Segments, meta)
	t.Seq++
	t.Version++
	c.flushes++
	rest := c.buf[t.Name][vals:]
	c.buf[t.Name] = append([]int32(nil), rest...)
	if len(c.buf[t.Name]) == 0 {
		delete(c.buf, t.Name)
	}
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
	for name, buf := range c.buf {
		t, ok := c.man.Tables[name]
		if !ok || len(buf) == 0 {
			continue
		}
		rows := int64(len(buf)) / int64(t.Schema.Arity())
		if err := c.flushLocked(t, rows); err != nil && firstErr == nil {
			firstErr = err
		}
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
		b := int64(len(c.buf[name])) / int64(t.Schema.Arity())
		s.BufferedRows += b
		s.Rows += b
	}
	return s
}

// sortRows stable-sorts flat row-major rows on the key column indices.
// Stable ordering means a batch already sorted on the key is untouched —
// the property the ingest differential relies on to reproduce generated
// row order exactly.
func sortRows(flat []int32, arity int, key []int) {
	if len(key) == 0 || len(flat) == 0 {
		return
	}
	n := len(flat) / arity
	rows := make([][]int32, n)
	for i := range rows {
		rows[i] = flat[i*arity : (i+1)*arity]
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range key {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	sorted := make([]int32, 0, len(flat))
	for _, r := range rows {
		sorted = append(sorted, r...)
	}
	copy(flat, sorted)
}
