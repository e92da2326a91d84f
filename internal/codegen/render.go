package codegen

import (
	"fmt"

	"ocas/internal/ocal"
	"ocas/internal/plan"
)

// Render emits the C translation unit of a synthesized plan. A plan carries
// the algorithm and its tuned parameters; the input arities and whether the
// result is written out come from the request the plan answers.
func Render(c *plan.Compiled, p *plan.Plan) (string, error) {
	prog, err := ocal.ParseFile(p.Program)
	if err != nil {
		return "", fmt.Errorf("codegen: plan program: %w", err)
	}
	arities := map[string]int{}
	for _, in := range c.Task.Spec.Inputs {
		arities[in.Name] = in.Arity
	}
	return Generate(prog, Options{
		FuncName:   "ocas_query",
		Params:     p.Params,
		InputArity: arities,
		Output:     c.Req.Output != "",
	})
}
