package codegen

import (
	"fmt"
	"strings"

	"ocas/internal/ocal"
)

// This file holds the generator plugins for the named definitions
// (Section 3: "developers can overwrite the default code generators for
// expressions and definitions using generator plugins"). Each plugin emits
// the efficient implementation: the linear partition, the 2^k-way merge of
// funcPow[k](mrg), and the streaming fold.

// emitHashJoin handles flatMap(join)(zip(partition(A), partition(B))) — the
// GRACE hash join skeleton.
func (g *gen) emitHashJoin(w *strings.Builder, app ocal.App) error {
	fm, ok := app.Fn.(ocal.FlatMap)
	if !ok {
		return fmt.Errorf("codegen: expected flatMap")
	}
	zipApp, ok := app.Arg.(ocal.App)
	if !ok {
		return fmt.Errorf("codegen: expected zip(partition, partition)")
	}
	tupArg, ok := zipApp.Arg.(ocal.Tup)
	if !ok || len(tupArg.Elems) != 2 {
		return fmt.Errorf("codegen: expected two partitioned inputs")
	}
	var names [2]string
	var sParam string
	for i, el := range tupArg.Elems {
		pa, ok := el.(ocal.App)
		if !ok {
			return fmt.Errorf("codegen: expected partition application")
		}
		pf, ok := pa.Fn.(ocal.PartitionF)
		if !ok {
			return fmt.Errorf("codegen: expected partition")
		}
		names[i] = exprVar(pa.Arg)
		sParam = paramRef(pf.S)
	}
	lam, ok := fm.Fn.(ocal.Lam)
	if !ok || len(lam.Params) != 2 {
		return fmt.Errorf("codegen: hash join lambda must be binary")
	}
	fmt.Fprintf(w, "/* GRACE hash join: linear-time partition plugin, then per-bucket join */\n")
	fmt.Fprintf(w, "ocas_rel *%s_part[%s], *%s_part[%s];\n", names[0], sParam, names[1], sParam)
	fmt.Fprintf(w, "ocas_hash_partition(ctx, %s, %s, %s_part); /* one sequential pass */\n",
		names[0], sParam, names[0])
	fmt.Fprintf(w, "ocas_hash_partition(ctx, %s, %s, %s_part);\n", names[1], sParam, names[1])
	fmt.Fprintf(w, "for (long b = 0; b < %s; b++) {\n", sParam)
	fmt.Fprintf(w, "  ocas_rel *%s = %s_part[b], *%s = %s_part[b];\n",
		lam.Params[0], names[0], lam.Params[1], names[1])
	var inner strings.Builder
	if err := g.emitTop(&inner, lam.Body); err != nil {
		return err
	}
	w.WriteString(indent(inner.String(), 1))
	w.WriteString("}\n")
	return nil
}

// emitExtSort handles treeFold[2^k](c, unfoldR(funcPow[k](mrg)))(R): the
// 2^k-way external merge sort with bin/bout transfer buffers.
func (g *gen) emitExtSort(w *strings.Builder, tf ocal.TreeFold, arg ocal.Expr) error {
	unf, ok := tf.Fn.(ocal.UnfoldR)
	if !ok {
		return fmt.Errorf("codegen: treeFold without unfoldR step")
	}
	way := paramRef(tf.K)
	src := exprVar(arg)
	fmt.Fprintf(w, "/* %s-way external merge sort (treeFold plugin) */\n", way)
	fmt.Fprintf(w, "long runs = ocas_len(%s); /* initial runs of length 1 */\n", src)
	fmt.Fprintf(w, "ocas_rel *cur = %s, *next = ocas_scratch(ctx);\n", src)
	fmt.Fprintf(w, "for (long len = 1; len < runs; len *= %s) { /* ceil(log_%s(runs)) passes */\n", way, way)
	fmt.Fprintf(w, "  for (long g0 = 0; g0 < runs; g0 += len * %s) {\n", way)
	fmt.Fprintf(w, "    /* merge %s runs, reading %s tuples per request, writing through a %s-tuple buffer */\n",
		way, paramRef(unf.K), paramRef(tf.OutK))
	fmt.Fprintf(w, "    ocas_kway_merge(ctx, cur, next, g0, len, %s, %s, %s);\n",
		way, paramRef(unf.K), paramRef(tf.OutK))
	fmt.Fprintf(w, "  }\n")
	fmt.Fprintf(w, "  ocas_rel *t = cur; cur = next; next = t;\n")
	fmt.Fprintf(w, "}\n")
	return nil
}

// emitMerge handles a top-level unfoldR application (set operations, zips,
// duplicate removal): the step function inlined into a streaming loop over
// blocked input windows.
func (g *gen) emitMerge(w *strings.Builder, unf ocal.UnfoldR, arg ocal.Expr) error {
	// A one-tuple prints as its bare element (<R> and R are the same
	// canonical form), so a non-tuple argument is a single source.
	elems := []ocal.Expr{arg}
	if tupArg, ok := arg.(ocal.Tup); ok {
		elems = tupArg.Elems
	}
	var ins []string
	for _, el := range elems {
		if v, ok := el.(ocal.Var); ok {
			ins = append(ins, v.Name)
		}
	}
	fmt.Fprintf(w, "/* streaming merge over %d inputs, %s-tuple read windows */\n",
		len(ins), paramRef(unf.K))
	for _, in := range ins {
		fmt.Fprintf(w, "ocas_window %s_w = ocas_open_window(ctx, %s, %s);\n",
			in, in, paramRef(unf.K))
	}
	fmt.Fprintf(w, "while (%s) {\n", windowsRemain(ins))
	fmt.Fprintf(w, "  ocas_merge_step(ctx%s); /* inlined unfoldR step */\n", windowArgs(ins))
	fmt.Fprintf(w, "}\n")
	fmt.Fprintf(w, "ocas_flush(ctx); /* evict the %s-tuple output buffer */\n", paramRef(unf.OutK))
	return nil
}

func windowsRemain(ins []string) string {
	parts := make([]string, len(ins))
	for i, in := range ins {
		parts[i] = "!ocas_window_done(&" + in + "_w)"
	}
	return strings.Join(parts, " || ")
}

func windowArgs(ins []string) string {
	var b strings.Builder
	for _, in := range ins {
		b.WriteString(", &" + in + "_w")
	}
	return b.String()
}

// emitFold handles foldL applications (aggregation) over plain or blocked
// scans.
func (g *gen) emitFold(w *strings.Builder, fl ocal.FoldL, arg ocal.Expr) error {
	src := arg
	k := "1"
	if f, ok := arg.(ocal.For); ok {
		if body, ok := f.Body.(ocal.Var); ok && body.Name == f.X {
			src = f.Src
			k = paramRef(f.K)
		}
	}
	name := exprVar(src)
	fmt.Fprintf(w, "/* streaming foldL over %s, %s tuples per read */\n", name, k)
	fmt.Fprintf(w, "ocas_acc acc = ocas_init_acc(ctx);\n")
	fmt.Fprintf(w, "for (long i = 0; i < ocas_len(%s); i += %s) {\n", name, k)
	fmt.Fprintf(w, "  long n = ocas_read_block(ctx, %s, i, %s, buf);\n", name, k)
	fmt.Fprintf(w, "  for (long j = 0; j < n; j++) acc = ocas_step(acc, &buf[j]);\n")
	fmt.Fprintf(w, "}\n")
	fmt.Fprintf(w, "ocas_finish(ctx, acc);\n")
	return nil
}
