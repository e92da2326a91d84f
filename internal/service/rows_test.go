package service

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// ingestSeeds are bodies on both sides of the scanners' grammar.
var ingestSeeds = []string{
	// CSV
	"1,2\n3,4\n", "1,2\r\n3,4\r\n", "1,2", "\n\n1,2\n\n", " 1 , -2 \n", "1\n2\n", "",
	`"1","2"` + "\n", "+1,2\n", "-0,007\n", "1e3,1\n", "1.0,2\n", "2147483648,1\n", "-2147483648,2147483647\n",
	"1,2,3\n", "1\n", "1,\n", ",\n", "  \n", "1,2\r", "1,2\r\r\n", "1\t,2\n", "1, 2 3\n", "-,1\n", "- 1,2\n",
	"99999999999999999999,1\n", "1,2\n\"", "1;2\n",
	// JSON
	`{"rows":[[1,2],[3,4]]}`, `{"rows":[[1],[2]]}`, "{ \"rows\" :\t[\n[ 1 , -2 ]\r\n] } \n", `{"rows":[]}`,
	`{"rows":null}`, `{}`, `{"rows":[[1,2]],"rows":[[3,4]]}`, `{"rows":[[1,2]],"more":1}`, `{"ROWS":[[1,2]]}`,
	`{"rows":[[1,2]]} trailing`, `{"rows":[[1,2]]}{"rows":[[3,4]]}`, `{"rows":[[+1,2]]}`, `{"rows":[[-0,2]]}`,
	`{"rows":[[01,2]]}`, `{"rows":[[1e3,2]]}`, `{"rows":[[1.0,2]]}`, `{"rows":[[2147483648,2]]}`,
	`{"rows":[[-2147483648,2147483647]]}`, `{"rows":[[1,2],]}`, `{"rows":[[1,2][3,4]]}`, `{"rows":[[1,2,3]]}`,
	`{"rows":[[]]}`, `{"rows":[[null,1]]}`, `{"rows":[["1",2]]}`, `{"rows":[[1,2]]`, `{"rows":[[1 2]]}`,
	`{"rows":[[-]]}`, `{"rows":[[99999999999999999999]]}`, `[[1,2]]`, `{"rows":[[1,2]]}` + "\x00",
}

// FuzzIngestDecode holds the byte scanners to the stdlib decoders: whatever a
// scanner accepts, encoding/csv + strconv (or encoding/json) accept with the
// same values; and decodeRows as a whole accepts, rejects and reads exactly
// as the stdlib decoder alone.
func FuzzIngestDecode(f *testing.F) {
	for _, s := range ingestSeeds {
		for arity := 1; arity <= 3; arity++ {
			f.Add([]byte(s), uint8(arity), true)
			f.Add([]byte(s), uint8(arity), false)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, a uint8, isCSV bool) {
		arity := int(a%8) + 1
		scan, std := scanJSON, decodeJSONRows
		if isCSV {
			scan, std = scanCSV, decodeCSVRows
		}
		want, wantErr := std(body, arity)
		if fast, ok := scan(body, arity); ok {
			if wantErr != nil {
				t.Fatalf("scanner accepts what the stdlib rejects: %v", wantErr)
			}
			if !sameCols(fast, want) {
				t.Fatalf("scanner read %v, stdlib %v", fast, want)
			}
		}
		got, err := decodeRows(body, arity, isCSV)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("decodeRows error %v, stdlib %v", err, wantErr)
		}
		if err == nil && !sameCols(got, want) {
			t.Fatalf("decodeRows read %v, stdlib %v", got, want)
		}
	})
}

// sameCols compares column vectors by value (a nil vector is an empty one).
func sameCols(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c]) != len(b[c]) || len(a[c]) > 0 && !reflect.DeepEqual(a[c], b[c]) {
			return false
		}
	}
	return true
}

// TestIngestScannersTakeThePlainGrammar: bodies a program writing integers
// produces never reach the stdlib decoders, and the scan allocates the column
// vectors and nothing per row.
func TestIngestScannersTakeThePlainGrammar(t *testing.T) {
	for _, body := range []string{"1,2\n3,4\n", "1,2\r\n\r\n 3 , -4 ", ""} {
		if _, ok := scanCSV([]byte(body), 2); !ok {
			t.Errorf("scanCSV falls back on %q", body)
		}
	}
	for _, body := range []string{`{"rows":[[1,2],[3,4]]}`, "{ \"rows\" : [\n\t[ 1 , -2 ] ,\r\n[0,4] ] }\n", `{"rows":[]}`} {
		if _, ok := scanJSON([]byte(body), 2); !ok {
			t.Errorf("scanJSON falls back on %q", body)
		}
	}

	bodies := func(rows int) (csv, js []byte) {
		var c, j bytes.Buffer
		j.WriteString(`{"rows":[`)
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&c, "%d,%d\n", r*7919%rows-rows/2, r)
			if r > 0 {
				j.WriteByte(',')
			}
			fmt.Fprintf(&j, "[%d]", r*7919%rows-rows/2)
		}
		j.WriteString("]}")
		return c.Bytes(), j.Bytes()
	}
	allocs := func(rows int) (csv, js float64) {
		c, j := bodies(rows)
		decode := func(body []byte, arity int, isCSV bool) float64 {
			return testing.AllocsPerRun(5, func() {
				if cols, err := decodeRows(body, arity, isCSV); err != nil || len(cols[0]) != rows {
					t.Fatalf("decoded %d rows of %d: %v", len(cols[0]), rows, err)
				}
			})
		}
		return decode(c, 2, true), decode(j, 1, false)
	}
	smallCSV, smallJSON := allocs(1 << 10)
	bigCSV, bigJSON := allocs(64 << 10)
	if bigCSV != smallCSV || bigJSON != smallJSON {
		t.Errorf("allocations grow with the rows: csv %v -> %v, json %v -> %v", smallCSV, bigCSV, smallJSON, bigJSON)
	}
}
