package plan

import (
	"fmt"
	"testing"
	_ "unsafe" // go:linkname
)

// execPhysStride is internal/exec's physStride, the rows its table readers
// fetch at a time: unexported there because nothing but a test may move it,
// and reached from here because the corpus that pins every charge is this
// package's.
//
//go:linkname execPhysStride ocas/internal/exec.physStride
var execPhysStride int64

// TestStrideInvariance: the golden corpus reproduces its records byte for
// byte — clock bits, ledgers, pool stats, EXPLAIN trees — when the readers
// fetch one row at a time and when they fetch seven, a stride no block size
// of the corpus divides; TestAccountingGolden is the same at the default. A
// charge is a function of the modelled blocks, never of the host's fetches.
func TestStrideInvariance(t *testing.T) {
	if *updateGolden {
		t.Skip("the golden file is written at the default stride")
	}
	defer func(stride int64) { execPhysStride = stride }(execPhysStride)
	for _, stride := range []int64{1, 7} {
		execPhysStride = stride
		t.Run(fmt.Sprintf("stride=%d", stride), TestAccountingGolden)
	}
}
