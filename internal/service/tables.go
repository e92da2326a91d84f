// tables.go is the ingest surface of ocasd: CRUD over durable catalog
// tables. The write path is deliberately plain — create with a schema, bulk
// load rows as JSON or CSV — because the interesting machinery (key-sorted
// batches, columnar segment flushes, the versioned manifest) lives in
// internal/catalog; the handlers decode (rows.go), delegate, and report.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"ocas/internal/catalog"
	"ocas/internal/obs"
)

// createTableRequest is the POST /tables body.
type createTableRequest struct {
	Name   string         `json:"name"`
	Schema catalog.Schema `json:"schema"`
}

// ingestResponse reports one bulk load.
type ingestResponse struct {
	Table string `json:"table"`
	// Ingested is the number of rows in this batch; Rows the table's new
	// total (durable + buffered).
	Ingested int64 `json:"ingested"`
	Rows     int64 `json:"rows"`
}

// requireCatalog 503s when the daemon runs without a -data directory.
func (s *Server) requireCatalog(w http.ResponseWriter) *catalog.Catalog {
	if s.cfg.Catalog == nil {
		s.fail(w, http.StatusServiceUnavailable, "no catalog configured: start ocasd with -data DIR to enable durable tables")
		return nil
	}
	return s.cfg.Catalog
}

// failCatalog answers a failed catalog mutation: the conditions the catalog
// names get their status, anything else is the given one — 400 where the
// catalog validates a request, 500 where only the file system can fail.
func (s *Server) failCatalog(w http.ResponseWriter, err error, otherwise int) {
	code := otherwise
	switch {
	case errors.Is(err, catalog.ErrNoTable):
		code = http.StatusNotFound
	case errors.Is(err, catalog.ErrExists):
		code = http.StatusConflict
	case errors.Is(err, catalog.ErrShape):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, catalog.ErrClosed):
		code = http.StatusServiceUnavailable
	}
	s.fail(w, code, "%v", err)
}

// handleTableCreate registers a new empty table (POST /tables).
func (s *Server) handleTableCreate(w http.ResponseWriter, r *http.Request) {
	cat := s.requireCatalog(w)
	if cat == nil {
		return
	}
	var req createTableRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := cat.Create(req.Name, req.Schema); err != nil {
		s.failCatalog(w, err, http.StatusBadRequest)
		return
	}
	s.tables.creates.Add(1)
	info, _ := cat.Info(req.Name)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(info)
}

// handleTableList lists every table (GET /tables).
func (s *Server) handleTableList(w http.ResponseWriter, r *http.Request) {
	cat := s.requireCatalog(w)
	if cat == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Tables []catalog.TableInfo `json:"tables"`
	}{cat.List()})
}

// handleTableGet returns one table's info (GET /tables/{name}).
func (s *Server) handleTableGet(w http.ResponseWriter, r *http.Request) {
	cat := s.requireCatalog(w)
	if cat == nil {
		return
	}
	info, ok := cat.Info(r.PathValue("name"))
	if !ok {
		s.fail(w, http.StatusNotFound, "no table %q", r.PathValue("name"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// handleTableDrop removes a table and its segment files (DELETE
// /tables/{name}).
func (s *Server) handleTableDrop(w http.ResponseWriter, r *http.Request) {
	cat := s.requireCatalog(w)
	if cat == nil {
		return
	}
	name := r.PathValue("name")
	if err := cat.Drop(name); err != nil {
		s.failCatalog(w, err, http.StatusInternalServerError)
		return
	}
	s.tables.drops.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleTableIngest bulk-loads rows (POST /tables/{name}/rows). Two body
// formats, switched on Content-Type: JSON ({"rows": [[k, v], ...]}) and CSV
// (text/csv, one row per record). Each batch is decoded into columns,
// key-sorted and buffered; full flush thresholds are cut into durable
// segments before the response.
func (s *Server) handleTableIngest(w http.ResponseWriter, r *http.Request) {
	cat := s.requireCatalog(w)
	if cat == nil {
		return
	}
	name := r.PathValue("name")
	info, ok := cat.Info(name)
	if !ok {
		s.fail(w, http.StatusNotFound, "no table %q", name)
		return
	}

	format := "json"
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		format = "csv"
	}
	_, sp := obs.Start(r.Context(), "ingest.decode")
	sp.Attr("format", format)
	// Ingest bodies carry bulk data; give them the same 16x allowance as
	// /execute's explicit inputs.
	limit := 16 * s.cfg.MaxBodyBytes
	var body bytes.Buffer
	if r.ContentLength > 0 && r.ContentLength <= limit {
		body.Grow(int(r.ContentLength) + bytes.MinRead) // one allocation, no regrowth
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	var cols [][]int32
	if err == nil {
		cols, err = decodeRows(body.Bytes(), info.Schema.Arity(), format == "csv")
	}
	if err != nil {
		sp.End()
		s.fail(w, http.StatusBadRequest, "bad rows for table %q: %v", name, err)
		return
	}
	n := int64(len(cols[0]))
	sp.Attr("rows", n)
	sp.End()

	_, sp = obs.Start(r.Context(), "catalog.append")
	res, err := cat.AppendCols(name, cols)
	sp.Attr("rows", n)
	sp.Attr("sorted", res.Sorted)
	sp.Attr("flushed", res.Flushed)
	sp.End()
	if err != nil {
		s.failCatalog(w, err, http.StatusInternalServerError)
		return
	}
	s.tables.ingestedRows.Add(n)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ingestResponse{Table: name, Ingested: n, Rows: res.Rows})
}
