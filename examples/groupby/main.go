// Group-by: streaming aggregation over a key-sorted relation. The naive
// specification is a one-pass unfoldR whose state is the remaining input:
// each step either merges the first two tuples when their keys match or
// emits a completed group. OCAS recognizes that with the output written
// back to disk the transfers dominate, and derives the blocked variant
// (big sequential reads, buffered writes) with tuned block sizes.
//
// The directory's query.ocal/request.json pair is the same scenario in the
// service smoke corpus: POST request.json to ocasd (or run
// `ocas -prog query.ocal -json ...`) to get this plan as JSON.
package main

import (
	_ "embed"
	"fmt"
	"log"
	"math/rand"

	"ocas/examples"
	"ocas/internal/interp"
	"ocas/internal/ocal"
)

//go:embed request.json
var request []byte

func main() {
	req := examples.Decode(request)

	// Correctness first: evaluate the specification on a small sorted
	// relation and compare against a plain group-by.
	prog, err := ocal.ParseFile(req.Program)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var rel, want ocal.List
	key := int64(0)
	for i := 0; i < 500; i++ {
		if rng.Intn(3) == 0 {
			key++
		}
		v := int64(rng.Intn(100))
		rel = append(rel, ocal.Tuple{ocal.Int(key), ocal.Int(v)})
		if n := len(want); n > 0 && want[n-1].(ocal.Tuple)[0] == ocal.Int(key) {
			want[n-1] = ocal.Tuple{ocal.Int(key), want[n-1].(ocal.Tuple)[1].(ocal.Int) + ocal.Int(v)}
		} else {
			want = append(want, ocal.Tuple{ocal.Int(key), ocal.Int(v)})
		}
	}
	got, err := interp.Eval(prog, map[string]ocal.Value{"R": rel}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if !ocal.ValueEq(got, want) {
		log.Fatalf("specification computes %s, want %s", got, want)
	}
	fmt.Printf("specification verified: %d rows -> %d groups\n\n", len(rel), len(want))

	// Synthesis: 4M sorted rows on disk, aggregated groups written back.
	examples.Run(req, examples.MaxRows)
}
