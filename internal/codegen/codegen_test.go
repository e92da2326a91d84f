package codegen

import (
	"os"
	"strings"
	"testing"

	"ocas/internal/ocal"
)

func blockedBNL() ocal.Expr {
	cond := ocal.Prim{Op: ocal.OpEq, Args: []ocal.Expr{
		ocal.Proj{E: ocal.Var{Name: "x"}, I: 1}, ocal.Proj{E: ocal.Var{Name: "y"}, I: 1}}}
	body := ocal.If{Cond: cond,
		Then: ocal.Single{E: ocal.Tup{Elems: []ocal.Expr{ocal.Var{Name: "x"}, ocal.Var{Name: "y"}}}},
		Else: ocal.Empty{}}
	return ocal.For{X: "xB", K: ocal.SymP("k1"), Src: ocal.Var{Name: "R"},
		Body: ocal.For{X: "yB", K: ocal.SymP("k2"), Src: ocal.Var{Name: "S"},
			Seq: &ocal.SeqAnnot{From: "hdd", To: "ram"},
			Body: ocal.For{X: "x", Src: ocal.Var{Name: "xB"},
				Body: ocal.For{X: "y", Src: ocal.Var{Name: "yB"}, Body: body}}}}
}

// TestBNLJoinIsTextbook reproduces the paper's manual inspection: the
// generated C must have the canonical Block Nested Loops structure — two
// blocked outer loops reading with ocas_read_block, two element loops, the
// join condition innermost.
func TestBNLJoinIsTextbook(t *testing.T) {
	src, err := Generate(blockedBNL(), Options{
		FuncName:   "bnl_join",
		Params:     map[string]int64{"k1": 1024, "k2": 512},
		InputArity: map[string]int{"R": 2, "S": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"#define K1 1024",
		"#define K2 512",
		"void bnl_join(ocas_ctx *ctx)",
		"+= K1",
		"+= K2",
		"ocas_read_block(ctx, R",
		"ocas_read_block(ctx, S",
		"sequential hdd->ram",
		"attr[0] == ",
		"ocas_consume(ctx",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C missing %q:\n%s", want, src)
		}
	}
	// Exactly four for loops: two blocked, two element-wise.
	if n := strings.Count(src, "for ("); n != 4 {
		t.Errorf("expected 4 loops, got %d:\n%s", n, src)
	}
	// No condition check outside the innermost loop body (loop order).
	if strings.Index(src, "ocas_read_block(ctx, R") > strings.Index(src, "ocas_read_block(ctx, S") {
		t.Errorf("R must be the outer loop:\n%s", src)
	}
}

func TestWriteOutUsesBufferedEmit(t *testing.T) {
	prog := ocal.For{X: "xB", K: ocal.SymP("k1"), OutK: ocal.SymP("ko"), Src: ocal.Var{Name: "R"},
		Body: ocal.For{X: "x", Src: ocal.Var{Name: "xB"},
			Body: ocal.Single{E: ocal.Var{Name: "x"}}}}
	src, err := Generate(prog, Options{Params: map[string]int64{"k1": 64, "ko": 128},
		InputArity: map[string]int{"R": 2}, Output: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "ocas_emit(ctx") {
		t.Errorf("write-out must use the buffered emitter:\n%s", src)
	}
	if !strings.Contains(src, "#define KO 128") {
		t.Errorf("output buffer constant missing:\n%s", src)
	}
}

func TestUnsupportedProgramFails(t *testing.T) {
	if _, err := Generate(ocal.Mrg{}, Options{}); err == nil {
		t.Error("expected error for bare definition")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := Options{Params: map[string]int64{"k1": 1, "k2": 2, "a": 3}, InputArity: map[string]int{"R": 2, "S": 2}}
	a, err := Generate(blockedBNL(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(blockedBNL(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("generation is not deterministic")
	}
}

// TestMergeOverOneSource: a one-tuple prints as its bare element, so the
// unfoldR of examples/groupby comes back from its printed form applied to R,
// not <R>, and is a streaming merge over that one source.
func TestMergeOverOneSource(t *testing.T) {
	src, err := os.ReadFile("../../examples/groupby/query.ocal")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ocal.ParseFile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ocal.ParseFile(ocal.String(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, isTup := prog.(ocal.App).Arg.(ocal.Tup); isTup {
		t.Fatalf("the printed form kept the one-tuple: %s", ocal.String(spec))
	}
	c, err := Generate(prog, Options{InputArity: map[string]int{"R": 2}, Output: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"streaming merge over 1 inputs", "ocas_open_window(ctx, R, 1)",
		"ocas_merge_step(ctx, &R_w)"} {
		if !strings.Contains(c, want) {
			t.Errorf("generated C missing %q:\n%s", want, c)
		}
	}
}
