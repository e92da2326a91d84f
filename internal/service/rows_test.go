package service

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
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
	// 7 and 8 digits, and a value ending 8 bytes before the body does
	"1234567,-7654321\n12345678,-87654321\n", "0000007,00000008\n", "12,34\n567,89\n",
	`{"rows":[[1234567,-7654321],[12345678,-87654321]]}`, `{"rows":[[0000007]]}`, `{"rows":[[7]]}     `,
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

// TestScanIntWordPath holds scanInt to strconv.ParseInt around its one-word
// read: 1 to 10 digits, with and without a sign, with and without a leading
// zero, at the int32 limits, and with 0 to 9 bytes of the body left after
// the number. A leading zero is an error only in JSON, as encoding/json has
// it.
func TestScanIntWordPath(t *testing.T) {
	var nums []string
	for n := 1; n <= 10; n++ {
		nums = append(nums, strings.Repeat("9", n), "1234567890"[:n], "0"+"7654321098"[:n-1])
	}
	nums = append(nums, "2147483647", "2147483648", "02147483647")
	for _, digits := range nums {
		for _, sign := range []string{"", "-"} {
			num := sign + digits
			want, err := strconv.ParseInt(num, 10, 32)
			for slack := 0; slack <= 9; slack++ {
				body := []byte("[" + num + ",\n]}    ,"[:slack])
				for _, strict := range []bool{false, true} {
					label := fmt.Sprintf("%q strict %v", body, strict)
					wantOK := err == nil && !(strict && len(digits) > 1 && digits[0] == '0')
					v, next, ok := scanInt(body, 1, strict)
					if ok != wantOK {
						t.Fatalf("%s: ok %v, want %v (ParseInt: %v)", label, ok, wantOK, err)
					}
					if ok && (int64(v) != want || next != 1+len(num)) {
						t.Fatalf("%s: read %d ending at %d, want %d ending at %d", label, v, next, want, 1+len(num))
					}
				}
			}
		}
	}
}
