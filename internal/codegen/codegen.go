// Package codegen emits C source code for optimized OCAL programs, the
// paper's final synthesis stage ("OCAS then generates C code out of the
// optimized algorithm, using an OCAL-to-C code generator"). Definitions are
// emitted through per-definition generator plugins — the blocked for loop,
// the 2^k-way merge of treeFold/unfoldR, the linear-time partition — so the
// generated program is the textbook algorithm rather than a naive expansion
// of Figure 2's definitions.
//
// C is a rendering of a plan, produced on demand and stored nowhere: Render
// takes a compiled request and its plan (cmd/ocas -c, examples/quickstart);
// Generate is the lower-level entry over a program and explicit options.
//
// The emitted C targets a small runtime interface (ocas_rt.h) of block-wise
// read/write calls; inspection tests verify the loop structure matches the
// textbook algorithms, which is the paper's own validation methodology
// ("we have instead manually verified that the generated algorithms are the
// same as those in textbooks").
package codegen

import (
	"fmt"
	"strings"

	"ocas/internal/ocal"
)

// Options configures code generation.
type Options struct {
	// FuncName is the name of the emitted C function.
	FuncName string
	// Params maps symbolic parameters to the optimizer-chosen values,
	// emitted as #define constants.
	Params map[string]int64
	// InputArity maps input relation names to their tuple arity.
	InputArity map[string]int
	// Output indicates the program writes its result out.
	Output bool
}

// Generate emits a C translation unit for the program.
func Generate(prog ocal.Expr, o Options) (string, error) {
	g := &gen{opts: o, arity: map[string]int{}}
	for k, v := range o.InputArity {
		g.arity[k] = v
	}
	var body strings.Builder
	if err := g.emitTop(&body, prog); err != nil {
		return "", err
	}
	var out strings.Builder
	out.WriteString("/* Generated by OCAS - do not edit. */\n")
	out.WriteString("#include \"ocas_rt.h\"\n\n")
	var names []string
	for name := range o.Params {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		fmt.Fprintf(&out, "#define %s %d\n", strings.ToUpper(name), o.Params[name])
	}
	if len(names) > 0 {
		out.WriteString("\n")
	}
	fn := o.FuncName
	if fn == "" {
		fn = "ocas_query"
	}
	fmt.Fprintf(&out, "void %s(ocas_ctx *ctx) {\n", fn)
	out.WriteString(indent(body.String(), 1))
	out.WriteString("}\n")
	return out.String(), nil
}

type gen struct {
	opts  Options
	arity map[string]int
	tmp   int
}

func (g *gen) fresh(prefix string) string {
	g.tmp++
	return fmt.Sprintf("%s%d", prefix, g.tmp)
}

func (g *gen) emitTop(w *strings.Builder, e ocal.Expr) error {
	switch t := e.(type) {
	case ocal.App:
		switch fn := t.Fn.(type) {
		case ocal.Lam:
			return g.emitTop(w, fn.Body)
		case ocal.FlatMap:
			return g.emitHashJoin(w, t)
		case ocal.TreeFold:
			return g.emitExtSort(w, fn, t.Arg)
		case ocal.UnfoldR:
			return g.emitMerge(w, fn, t.Arg)
		case ocal.FoldL:
			return g.emitFold(w, fn, t.Arg)
		}
	case ocal.For:
		return g.emitForNest(w, t)
	}
	return fmt.Errorf("codegen: unsupported top-level %s", ocal.String(e))
}

func exprVar(e ocal.Expr) string {
	if v, ok := e.(ocal.Var); ok {
		return v.Name
	}
	return "_"
}

// emitForNest generates the blocked nested loops (BNL join and scans).
func (g *gen) emitForNest(w *strings.Builder, f ocal.For) error {
	src := exprVar(f.Src)
	blockVar := f.X
	k := paramRef(f.K)
	idx := g.fresh("i")
	if f.K.IsOne() {
		// Element loop over a previously fetched block.
		fmt.Fprintf(w, "for (long %s = 0; %s < %s_n; %s++) {\n", idx, idx, src, idx)
		fmt.Fprintf(w, "  tuple *%s = &%s_buf[%s];\n", f.X, src, idx)
	} else {
		seq := ""
		if f.Seq != nil {
			seq = fmt.Sprintf(" /* sequential %s->%s */", f.Seq.From, f.Seq.To)
		}
		fmt.Fprintf(w, "for (long %s = 0; %s < ocas_len(%s); %s += %s) {%s\n",
			idx, idx, src, idx, k, seq)
		fmt.Fprintf(w, "  long %s_n = ocas_read_block(ctx, %s, %s, %s, %s_buf);\n",
			blockVar, src, idx, k, blockVar)
	}
	var inner strings.Builder
	if err := g.emitBody(&inner, f.Body); err != nil {
		return err
	}
	w.WriteString(indent(inner.String(), 1))
	w.WriteString("}\n")
	return nil
}

func (g *gen) emitBody(w *strings.Builder, e ocal.Expr) error {
	switch t := e.(type) {
	case ocal.For:
		return g.emitForNest(w, t)
	case ocal.If:
		cond, err := g.expr(t.Cond)
		if err != nil {
			return err
		}
		if _, isEmpty := t.Else.(ocal.Empty); isEmpty {
			fmt.Fprintf(w, "if (%s) {\n", cond)
			var inner strings.Builder
			if err := g.emitBody(&inner, t.Then); err != nil {
				return err
			}
			w.WriteString(indent(inner.String(), 1))
			w.WriteString("}\n")
			return nil
		}
		return fmt.Errorf("codegen: general if in emit position")
	case ocal.Single:
		val, err := g.expr(t.E)
		if err != nil {
			return err
		}
		if g.opts.Output {
			fmt.Fprintf(w, "ocas_emit(ctx, %s); /* buffered, evicted every K_O tuples */\n", val)
		} else {
			fmt.Fprintf(w, "ocas_consume(ctx, %s);\n", val)
		}
		return nil
	case ocal.Empty:
		return nil
	case ocal.Var:
		// Blocked identity scan body.
		fmt.Fprintf(w, "ocas_consume_block(ctx, %s_buf, %s_n);\n", t.Name, t.Name)
		return nil
	}
	return fmt.Errorf("codegen: unsupported body %s", ocal.String(e))
}

func (g *gen) expr(e ocal.Expr) (string, error) {
	switch t := e.(type) {
	case ocal.Var:
		return t.Name, nil
	case ocal.IntLit:
		return fmt.Sprintf("%d", t.V), nil
	case ocal.BoolLit:
		if t.V {
			return "1", nil
		}
		return "0", nil
	case ocal.Proj:
		base, err := g.expr(t.E)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s->attr[%d]", base, t.I-1), nil
	case ocal.Tup:
		parts := make([]string, len(t.Elems))
		for i, el := range t.Elems {
			s, err := g.expr(el)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		return "ocas_tuple(" + strings.Join(parts, ", ") + ")", nil
	case ocal.Prim:
		return g.prim(t)
	}
	return "", fmt.Errorf("codegen: unsupported expression %s", ocal.String(e))
}

func (g *gen) prim(p ocal.Prim) (string, error) {
	cop := map[ocal.PrimOp]string{
		ocal.OpEq: "==", ocal.OpNe: "!=", ocal.OpLt: "<", ocal.OpLe: "<=",
		ocal.OpGt: ">", ocal.OpGe: ">=", ocal.OpAdd: "+", ocal.OpSub: "-",
		ocal.OpMul: "*", ocal.OpDiv: "/", ocal.OpMod: "%",
		ocal.OpAnd: "&&", ocal.OpOr: "||",
	}
	if op, ok := cop[p.Op]; ok && len(p.Args) == 2 {
		a, err := g.expr(p.Args[0])
		if err != nil {
			return "", err
		}
		b, err := g.expr(p.Args[1])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(%s %s %s)", a, op, b), nil
	}
	switch p.Op {
	case ocal.OpNot:
		a, err := g.expr(p.Args[0])
		if err != nil {
			return "", err
		}
		return "(!" + a + ")", nil
	case ocal.OpLength:
		a, err := g.expr(p.Args[0])
		if err != nil {
			return "", err
		}
		return "ocas_len(" + a + ")", nil
	case ocal.OpHead:
		a, err := g.expr(p.Args[0])
		if err != nil {
			return "", err
		}
		return "ocas_head(" + a + ")", nil
	}
	return "", fmt.Errorf("codegen: unsupported primitive %v", p.Op)
}

func paramRef(p ocal.Param) string {
	if p.Sym != "" {
		return strings.ToUpper(p.Sym)
	}
	v, _ := p.Literal()
	return fmt.Sprintf("%d", v)
}

func indent(s string, levels int) string {
	pad := strings.Repeat("  ", levels)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = pad + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
