// Quickstart: synthesize the Block Nested Loops Join of Example 1.
//
// The request is the naive, memory-hierarchy-oblivious join
//
//	for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []
//
// over a hierarchy with one hard disk under RAM. OCAS derives the blocked,
// sequential-scan nested loops join, tunes the block sizes to the RAM
// budget, and emits C code.
package main

import (
	_ "embed"
	"fmt"
	"log"

	"ocas/examples"
	"ocas/internal/codegen"
)

//go:embed request.json
var request []byte

func main() {
	// The plan is the algorithm and its parameters; C is rendered from it,
	// with the request supplying input arities and the output placement.
	c, p, _ := examples.Run(examples.Decode(request), examples.MaxRows)
	csrc, err := codegen.Render(c, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated C:")
	fmt.Println(csrc)
}
