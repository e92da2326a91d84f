package experiments

import (
	"io"
	"testing"
)

// TestColumnarChainsRun runs the columnar-layout harness at a heavy shrink:
// every durable chain must execute over its catalog inputs and report a
// non-empty result and a positive virtual clock. (That the layout never
// shows up in digests, ledgers or the clock is the exec package's layout
// differential and the plan package's accounting golden.)
func TestColumnarChainsRun(t *testing.T) {
	rs, err := RunColumnar(Config{Shrink: 64}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d chains, want 3", len(rs))
	}
	for _, r := range rs {
		if r.OutRows <= 0 || r.Rows <= 0 {
			t.Errorf("%s: empty chain (in %d rows, out %d)", r.Name, r.Rows, r.OutRows)
		}
		if r.ActSecs <= 0 {
			t.Errorf("%s: virtual clock %v, want > 0", r.Name, r.ActSecs)
		}
	}
}
