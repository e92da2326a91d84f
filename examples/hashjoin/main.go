// Hash join: derive the GRACE hash join from the naive join via the
// hash-part rule when RAM is scarce relative to the relations, execute it on
// the simulator, and cross-check the result against the plan the same
// request gets when RAM is ample.
package main

import (
	_ "embed"
	"fmt"
	"log"

	"ocas/examples"
)

//go:embed request.json
var request []byte

func main() {
	req := examples.Decode(request)
	_, _, scarce := examples.Run(req, examples.MaxRows)

	req.RAM = 1 << 30
	fmt.Println("-- the same request with 1 GiB of RAM --")
	_, _, ample := examples.Run(req, examples.MaxRows)

	if scarce.OutDigest != ample.OutDigest {
		log.Fatalf("hash join result mismatch: %d rows %s vs %d rows %s",
			scarce.OutRows, scarce.OutDigest, ample.OutRows, ample.OutDigest)
	}
	fmt.Printf("cross-checked: both plans produce the same %d tuples\n", scarce.OutRows)
}
