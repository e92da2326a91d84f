// rows.go decodes an ingest body into column vectors. The plain grammar —
// what a program writing integers produces — is scanned byte by byte straight
// into presized columns; the first byte outside it hands the same bytes to
// encoding/csv or encoding/json, which alone decide what else is a valid body
// and word every rejection. The scanners therefore only have to be right
// about what they accept, and FuzzIngestDecode holds them to that.
package service

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
)

// decodeRows parses an ingest body — CSV, one record per line, or JSON
// {"rows": [[...], ...]} — into one vector per column.
func decodeRows(body []byte, arity int, isCSV bool) ([][]int32, error) {
	if isCSV {
		if cols, ok := scanCSV(body, arity); ok {
			return cols, nil
		}
		return decodeCSVRows(body, arity)
	}
	if cols, ok := scanJSON(body, arity); ok {
		return cols, nil
	}
	return decodeJSONRows(body, arity)
}

// newCols returns arity empty vectors with room for rows values each.
func newCols(arity, rows int) [][]int32 {
	cols := make([][]int32, arity)
	for c := range cols {
		cols[c] = make([]int32, 0, rows)
	}
	return cols
}

// scanInt reads -?digits at b[i:] and returns the value and the index after
// it. It fails on anything else and on a value outside int32. With strict set
// it reads a JSON number: no leading zeros. With 8 bytes at hand the first 8
// digits are read from one word, with no branch on their count; the rest of
// a longer number, and a number among the body's last 7 bytes, a byte at a
// time.
func scanInt(b []byte, i int, strict bool) (v int32, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start, n := i, int64(0)
	if len(b)-i >= 8 {
		x := binary.LittleEndian.Uint64(b[i:]) ^ 0x3030303030303030
		// Bit 7 of every byte that is not a digit, above 9 here.
		nd := ((x & 0x7f7f7f7f7f7f7f7f) + 0x7676767676767676 | x) & 0x8080808080808080
		k := uint(bits.TrailingZeros64(nd)) / 8
		// The k digits to the top, an 8-digit number with leading zeros;
		// then pairs, quads and the whole, most significant first. With no
		// digit (k = 0) n is garbage, and i == start rejects it below.
		x <<= (64 - 8*k) & 63
		x = (x * (10<<8 + 1) >> 8) & 0x00ff00ff00ff00ff
		x = (x * (100<<16 + 1) >> 16) & 0x0000ffff0000ffff
		n, i = int64(x*(10000<<32+1)>>32), i+int(k)
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if n = n*10 + int64(b[i]-'0'); n > 1<<31 {
			return 0, 0, false
		}
	}
	if i == start || strict && b[start] == '0' && i-start > 1 {
		return 0, 0, false
	}
	if neg {
		n = -n
	}
	return int32(n), i, n <= 1<<31-1
}

// skipSpaces returns the index of the first byte of b[i:] that is not a
// space, the padding scanCSV allows around a field.
func skipSpaces(b []byte, i int) int {
	for i < len(b) && b[i] == ' ' {
		i++
	}
	return i
}

// lineEnd returns the index after the LF or CRLF at b[i:], or -1.
func lineEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '\r' {
		i++
	}
	if i < len(b) && b[i] == '\n' {
		return i + 1
	}
	return -1
}

// scanCSV reads the CSV encoding/csv and strconv.ParseInt read the same way
// without being asked twice: arity fields of -?digits a line, spaces around
// a field, LF or CRLF line ends, empty lines skipped.
func scanCSV(b []byte, arity int) ([][]int32, bool) {
	// Every record ends a line and is at least arity digits and separators.
	cols := newCols(arity, min(bytes.Count(b, []byte{'\n'})+1, len(b)/(2*arity)+1))
	for i := 0; i < len(b); {
		if end := lineEnd(b, i); end >= 0 { // an empty line
			i = end
			continue
		}
		for c := range cols {
			v, next, ok := scanInt(b, skipSpaces(b, i), false)
			if !ok {
				return nil, false
			}
			if i = skipSpaces(b, next); c < arity-1 {
				if i == len(b) || b[i] != ',' {
					return nil, false
				}
				i++
			}
			cols[c] = append(cols[c], v)
		}
		if i < len(b) {
			if i = lineEnd(b, i); i < 0 {
				return nil, false
			}
		}
	}
	return cols, true
}

// skipWS returns the index of the first byte of b[i:] that is not the
// whitespace JSON allows between tokens.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// eat returns the index after byte c, which has to be the first of b[i:]
// that is not whitespace, or -1.
func eat(b []byte, i int, c byte) int {
	if i = skipWS(b, i); i < len(b) && b[i] == c {
		return i + 1
	}
	return -1
}

// scanJSON reads {"rows":[[int,...],...]} with arity integers a row and
// whitespace between tokens, and nothing after it.
func scanJSON(b []byte, arity int) ([][]int32, bool) {
	i := 0
	for _, tok := range []string{"{", `"rows"`, ":", "["} {
		if i = skipWS(b, i); !bytes.HasPrefix(b[i:], []byte(tok)) {
			return nil, false
		}
		i += len(tok)
	}
	// Every row opens a bracket and is at least arity digits and separators.
	cols := newCols(arity, min(bytes.Count(b, []byte{'['}), len(b)/(2*arity+2)+1))
	for {
		if end := eat(b, i, ']'); end >= 0 {
			i = end
			break
		}
		if len(cols[0]) > 0 {
			if i = eat(b, i, ','); i < 0 {
				return nil, false
			}
		}
		if i = eat(b, i, '['); i < 0 {
			return nil, false
		}
		for c := range cols {
			if c > 0 {
				if i = eat(b, i, ','); i < 0 {
					return nil, false
				}
			}
			v, next, ok := scanInt(b, skipWS(b, i), true)
			if !ok {
				return nil, false
			}
			i = next
			cols[c] = append(cols[c], v)
		}
		if i = eat(b, i, ']'); i < 0 {
			return nil, false
		}
	}
	if i = eat(b, i, '}'); i < 0 {
		return nil, false
	}
	return cols, skipWS(b, i) == len(b)
}

// decodeJSONRows is encoding/json's reading of {"rows": [[...], ...]}.
func decodeJSONRows(body []byte, arity int) ([][]int32, error) {
	var req struct {
		Rows [][]int64 `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	cols := newCols(arity, len(req.Rows))
	for i, row := range req.Rows {
		if len(row) != arity {
			return nil, fmt.Errorf("row %d has %d values, want %d", i, len(row), arity)
		}
		for c, v := range row {
			if v < -1<<31 || v > 1<<31-1 {
				return nil, fmt.Errorf("row %d value %d outside int32", i, v)
			}
			cols[c] = append(cols[c], int32(v))
		}
	}
	return cols, nil
}

// decodeCSVRows is encoding/csv's reading of one int per field, one row per
// record.
func decodeCSVRows(body []byte, arity int) ([][]int32, error) {
	rd := csv.NewReader(bytes.NewReader(body))
	rd.FieldsPerRecord = arity
	rd.ReuseRecord = true
	cols := make([][]int32, arity)
	for i := 0; ; i++ {
		rec, err := rd.Read()
		if err == io.EOF {
			return cols, nil
		}
		if err != nil {
			return nil, err
		}
		for c, field := range rec {
			v, err := strconv.ParseInt(strings.TrimSpace(field), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("record %d: %v", i, err)
			}
			cols[c] = append(cols[c], int32(v))
		}
	}
}
