// Column store: synthesize and execute a column-store read — unfoldR(z)
// zipping two column files back into rows, one of the Table 1 workloads.
// The naive plan reads the columns a tuple at a time; the synthesized one
// reads each in blocks sized to share the RAM budget.
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
