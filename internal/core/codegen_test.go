package core_test

import (
	"strings"
	"testing"

	"ocas/internal/codegen"
	"ocas/internal/core"
	"ocas/internal/memory"
	"ocas/internal/ocal"
)

// TestWinnersGenerateC ensures every synthesized winner in the evaluation's
// algorithm families passes through the C code generator. It sits in an
// external test package because codegen, which renders plans, imports core.
func TestWinnersGenerateC(t *testing.T) {
	cases := []struct {
		name string
		task core.Task
		ram  int64
	}{
		{"bnl", core.Task{Spec: core.JoinSpec(true),
			InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
			InputRows: map[string]int64{"R": 1 << 16, "S": 1 << 11}}, 16 * memory.KiB},
		{"sort", core.Task{Spec: core.SortSpec(),
			InputLoc:  map[string]string{"R": "hdd"},
			InputRows: map[string]int64{"R": 1 << 20}}, 64 * memory.KiB},
		{"grace", core.Task{Spec: core.JoinSpec(true),
			InputLoc:  map[string]string{"R": "hdd", "S": "hdd"},
			InputRows: map[string]int64{"R": 4 << 20, "S": 8 << 20}}, 2 * memory.MiB},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &core.Synthesizer{H: memory.HDDRAM(c.ram), MaxDepth: 8, MaxSpace: 1500}
			res, err := s.Synthesize(c.task)
			if err != nil {
				t.Fatal(err)
			}
			arities := map[string]int{}
			for _, in := range c.task.Spec.Inputs {
				arities[in.Name] = in.Arity
			}
			src, err := codegen.Generate(res.Best.Expr, codegen.Options{
				FuncName: "q", Params: res.Best.Params, InputArity: arities})
			if err != nil {
				t.Fatalf("codegen of %s: %v", ocal.String(res.Best.Expr), err)
			}
			if !strings.Contains(src, "void q(ocas_ctx *ctx)") {
				t.Error("missing function shell")
			}
		})
	}
}
