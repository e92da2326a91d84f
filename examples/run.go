// Package examples is the road every example program takes from its
// request.json to a result — the daemon's own: plan.Compile, Compiled.Run,
// plan.ExecutePlan. The examples differ only in the request they embed and
// in what they point out about the plan that comes back.
package examples

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"strings"

	"ocas/internal/plan"
)

// MaxRows is the per-input row count the examples execute at most — the
// daemon's default /execute limit. The plan stays tuned for the request's
// nominal sizes; only the run is scaled down.
const MaxRows = 1 << 20

// Decode parses an embedded request.json.
func Decode(raw []byte) plan.Request {
	var req plan.Request
	if err := json.Unmarshal(raw, &req); err != nil {
		log.Fatal(err)
	}
	return req
}

// Run synthesizes the request's plan, executes it on generated inputs of at
// most maxRows rows each, and prints both. The compiled request comes back
// with them for renderings that need more than the plan (codegen.Render).
func Run(req plan.Request, maxRows int64) (*plan.Compiled, *plan.Plan, *plan.ExecReport) {
	ctx := context.Background()
	c, err := plan.Compile(req)
	if err != nil {
		log.Fatal(err)
	}
	p, err := c.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	opt := plan.ExecOptions{Seed: 1, Rows: map[string]int64{}}
	for name, in := range c.Req.Inputs {
		opt.Rows[name] = min(in.Rows, maxRows)
	}
	rep, err := plan.ExecutePlan(ctx, c, p, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("specification:")
	fmt.Println("   ", p.Spec)
	fmt.Printf("    estimated cost: %.4g s\n", p.SpecSeconds)
	fmt.Println("synthesized algorithm:")
	fmt.Println("   ", p.Program)
	fmt.Println("    derivation:    ", strings.Join(p.Derivation, " -> "))
	fmt.Println("    parameters:    ", p.Params)
	fmt.Printf("    estimated cost: %.4g s (%.0fx faster)\n", p.Seconds, p.Speedup)
	fmt.Printf("executed on %v rows (the estimates are for the request's sizes):\n", rep.InputRows)
	fmt.Printf("    measured:       %.4g simulated s, %d result rows\n", rep.VirtualSeconds, rep.OutRows)
	if rep.Result != "" {
		fmt.Println("    result:        ", rep.Result)
	}
	fmt.Println("    digest:        ", rep.OutDigest)
	fmt.Println()
	return c, p, rep
}
