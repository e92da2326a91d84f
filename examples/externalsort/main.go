// External sort: the merge kernel of the 2^k-way External Merge-Sort
// (Section 7.2) — a two-way mrg of sorted runs read from one disk and
// written to another. OCAS blocks both reads and buffers the write-back, so
// each disk arm streams instead of seeking per tuple.
package main

import (
	_ "embed"

	"ocas/examples"
)

//go:embed request.json
var request []byte

func main() {
	examples.Run(examples.Decode(request), examples.MaxRows)
}
