package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ocas/internal/ocal"
)

// stepGen draws unfoldR steps from the step grammar for FuzzKernelVsInterp.
// It keeps to steps whose meaning over RAM windows is their meaning over
// whole lists — what UnfoldR's one row of lookahead guarantees: reads reach
// at most head(tail(·)), an input loses at most one row per step, and []
// replaces an input only where it is known to be empty — and to steps that
// consume an input row in every leaf, so they terminate. Within that it
// leaves reads unguarded now and then: errors are part of the contract.
type stepGen struct {
	r       *rand.Rand
	scratch int      // leading [] components
	arity   int      // of every input (so rows compare and emit alike)
	lists   []string // the list expression of each component
}

// What a path of the tree knows about a component.
const (
	rowsUnknown = iota
	rowsNone
	rowsOne // at least one
	rowsTwo // at least two
)

func (g *stepGen) list(i, depth int) string {
	if depth == 1 {
		return "tail(" + g.lists[i] + ")"
	}
	return g.lists[i]
}

// read picks a row to read: a known one, or now and then any.
func (g *stepGen) read(known []int) string {
	var ok []string
	for i, k := range known {
		if k >= rowsOne {
			ok = append(ok, g.list(i, 0))
		}
		if k == rowsTwo {
			ok = append(ok, g.list(i, 1))
		}
	}
	if len(ok) == 0 || g.r.Intn(10) == 0 {
		return "head(" + g.list(g.r.Intn(len(known)), g.r.Intn(2)) + ")"
	}
	return "head(" + ok[g.r.Intn(len(ok))] + ")"
}

func (g *stepGen) scalar(known []int, depth int) string {
	switch n := g.r.Intn(10); {
	case n < 2:
		return fmt.Sprint(g.r.Intn(7))
	case n < 4 && depth > 0:
		ops := []string{"+", "-", "*", "+", "-", "*", "/", "%"}
		return fmt.Sprintf("(%s %s %s)", g.scalar(known, depth-1), ops[g.r.Intn(len(ops))], g.scalar(known, depth-1))
	case g.r.Intn(40) == 0:
		return fmt.Sprintf("%s.%d", g.read(known), g.r.Intn(3)+1) // maybe not a column
	case g.arity == 1:
		return g.read(known)
	}
	return fmt.Sprintf("%s.%d", g.read(known), g.r.Intn(g.arity)+1)
}

// row is a row of the inputs' arity: a state row as it is, or built.
func (g *stepGen) row(known []int) string {
	if g.r.Intn(2) == 0 {
		return g.read(known)
	}
	if g.arity == 1 {
		return g.scalar(known, 1)
	}
	return fmt.Sprintf("<%s, %s>", g.scalar(known, 1), g.scalar(known, 1))
}

func (g *stepGen) compare(known []int) string {
	ops := []string{"==", "!=", "<", "<=", ">", ">="}
	op := ops[g.r.Intn(len(ops))]
	if g.r.Intn(2) == 0 {
		return fmt.Sprintf("%s %s %s", g.read(known), op, g.read(known))
	}
	return fmt.Sprintf("%s %s %s", g.scalar(known, 1), op, g.scalar(known, 1))
}

// guard splits a path on whether tailᵈ(sᵢ) is empty.
func (g *stepGen) guard(known []int, i, d, depth int) string {
	then, els := append([]int(nil), known...), append([]int(nil), known...)
	if d == 0 {
		then[i], els[i] = rowsNone, rowsOne
	} else {
		els[i] = rowsTwo
	}
	return fmt.Sprintf("if length(%s) == 0 then %s else %s", g.list(i, d), g.tree(then, depth), g.tree(els, depth))
}

func (g *stepGen) tree(known []int, depth int) string {
	// Nearly always a path learns which components have rows before it
	// reads them, the way a written step does.
	for i, k := range known {
		if k == rowsUnknown && g.r.Intn(12) != 0 {
			return g.guard(known, i, 0, depth)
		}
	}
	if depth == 0 {
		return g.leaf(known)
	}
	for i, k := range known {
		if k == rowsOne && g.r.Intn(3) == 0 {
			return g.guard(known, i, 1, depth-1)
		}
	}
	cond := g.compare(known)
	switch g.r.Intn(6) {
	case 0:
		cond = fmt.Sprintf("(%s) and (%s)", cond, g.compare(known))
	case 1:
		cond = fmt.Sprintf("(%s) or not (%s)", cond, g.compare(known))
	}
	return fmt.Sprintf("if %s then %s else %s", cond, g.tree(known, depth-1), g.tree(known, depth-1))
}

func (g *stepGen) leaf(known []int) string {
	emits := g.r.Intn(5) < 3
	chunk := "[]"
	if emits {
		chunk = "[" + g.row(known) + "]"
	}
	// The leaf consumes from one input that may have rows, if there is one —
	// one known to have some, if there is one of those.
	var live, sure []int
	for i := g.scratch; i < len(known); i++ {
		if known[i] != rowsNone {
			live = append(live, i)
		}
		if known[i] >= rowsOne {
			sure = append(sure, i)
		}
	}
	if len(sure) > 0 {
		live = sure
	}
	consume := -1
	if len(live) > 0 {
		consume = live[g.r.Intn(len(live))]
	}
	upd := make([]string, len(known))
	for i := range upd {
		s := g.lists[i]
		switch {
		case consume < 0:
			upd[i] = "[]" // nothing left to read: drop the scratch rows so the run ends
		case i < g.scratch && !emits:
			// A silent leaf may not grow the state (interp's progress rule).
			upd[i] = []string{"[]", s}[g.r.Intn(2)]
		case i < g.scratch:
			upd[i] = []string{"[]", s, "[" + g.row(known) + "]",
				fmt.Sprintf("[%s] ++ tail(%s)", g.row(known), s)}[g.r.Intn(4)]
			if known[i] < rowsOne && g.r.Intn(10) != 0 {
				upd[i] = []string{"[]", s, "[" + g.row(known) + "]"}[g.r.Intn(3)]
			}
		case known[i] == rowsNone:
			upd[i] = []string{"[]", s}[g.r.Intn(2)]
		case i == consume || (known[i] >= rowsOne && g.r.Intn(3) == 0):
			upd[i] = "tail(" + s + ")"
			if g.r.Intn(3) == 0 && (known[i] == rowsTwo || g.r.Intn(10) == 0) {
				upd[i] = fmt.Sprintf("[%s] ++ tail(tail(%s))", g.row(known), s)
				if g.arity == 2 && g.r.Intn(2) == 0 {
					// The group-by's running sum: it outgrows int32 in the window.
					upd[i] = fmt.Sprintf("[<head(%s).1, (head(%s).2 + head(tail(%s)).2)>] ++ tail(tail(%s))", s, s, s, s)
				}
			}
		case known[i] >= rowsOne && g.r.Intn(4) == 0:
			upd[i] = fmt.Sprintf("[%s] ++ tail(%s)", g.row(known), s)
		default:
			upd[i] = s
		}
	}
	return fmt.Sprintf("<%s, <%s>>", chunk, strings.Join(upd, ", "))
}

// stepTable draws a key-sorted table of up to maxRows rows whose values now
// and then sit just below 2^31, so two of them added up leave int32.
func stepTable(r *rand.Rand, arity, maxRows int) diffTable {
	return stepRows(r, arity, r.Intn(maxRows+1))
}

// stepRows is stepTable at exactly n rows.
func stepRows(r *rand.Rand, arity, n int) diffTable {
	var dt diffTable
	key := int32(0)
	for i := 0; i < n; i++ {
		key += int32(r.Intn(3))
		row := ocal.Tuple{ocal.Int(key)}
		for len(row) < arity {
			v := int32(r.Intn(5))
			if r.Intn(4) == 0 {
				v += 1<<31 - 8
			}
			row = append(row, ocal.Int(v))
		}
		for _, v := range row {
			dt.rows = append(dt.rows, int32(v.(ocal.Int)))
		}
		if arity == 1 {
			dt.value = append(dt.value, row[0])
		} else {
			dt.value = append(dt.value, row)
		}
	}
	return dt
}

// stepCase draws one unfoldR program and its inputs. shape 0: a generated
// lambda over named components; 1: the same over one state tuple g; 2: mrg
// or funcPow[k](mrg); 3: z[n], on ragged inputs half of the time.
func stepCase(r *rand.Rand, shape int) diffCase {
	c := diffCase{params: map[string]int64{"k1": int64(r.Intn(6) + 1)},
		inputs: map[string]diffTable{}, arities: map[string]int{}}
	arity := r.Intn(2) + 1
	input := func(i, rows int) string {
		name := fmt.Sprintf("L%d", i+1)
		c.inputs[name], c.arities[name] = stepTable(r, arity, rows), arity
		return name
	}
	var step string
	var args []string
	switch shape {
	case 2:
		k := r.Intn(3)
		step = []string{"mrg", "funcPow[1](mrg)", "funcPow[2](mrg)"}[k]
		ways := []int{2, 2, 4}[k]
		for i := 0; i < ways; i++ {
			args = append(args, input(i, 12))
		}
	case 3:
		n := r.Intn(3) + 1
		step = fmt.Sprintf("z[%d]", n)
		rows := r.Intn(12)
		for i := 0; i < n; i++ {
			if r.Intn(2*n) == 0 {
				rows = r.Intn(12) // ragged
			}
			name := fmt.Sprintf("L%d", i+1)
			c.inputs[name], c.arities[name] = stepRows(r, arity, rows), arity
			args = append(args, name)
		}
	default:
		g := &stepGen{r: r, scratch: r.Intn(2), arity: arity}
		ins := r.Intn(2) + 1
		var names []string
		for i := 0; i < g.scratch+ins; i++ {
			names = append(names, fmt.Sprintf("s%d", i+1))
			if i < g.scratch {
				args = append(args, "[]")
			} else {
				args = append(args, input(i, 16))
			}
		}
		head := `\<` + strings.Join(names, ", ") + "> -> "
		g.lists = names
		if shape == 1 || len(names) == 1 { // one name is the state tuple either way
			head = `\g -> `
			g.lists = nil
			for i := range names {
				g.lists = append(g.lists, fmt.Sprintf("g.%d", i+1))
			}
		}
		step = head + g.tree(make([]int, len(names)), r.Intn(3)+1)
	}
	c.src = fmt.Sprintf("unfoldR[k1](%s)(<%s>)", step, strings.Join(args, ", "))
	return c
}

// TestUnfoldStepShapes runs the shipped step shapes — the Table 1 set
// operations, dup-removal, the group-by — at every window size that moves the
// refill boundary, against interp.
func TestUnfoldStepShapes(t *testing.T) {
	const (
		dedup = `\<seen, rest> -> if length(rest) == 0 then <[], <[], []>> ` +
			`else if length(seen) == 0 then <[head(rest)], <[head(rest)], tail(rest)>> ` +
			`else if head(seen) == head(rest) then <[], <seen, tail(rest)>> ` +
			`else <[head(rest)], <[head(rest)], tail(rest)>>`
		groupby = `\g -> if length(tail(g.1)) == 0 then <[head(g.1)], <[]>> ` +
			`else if head(g.1).1 == head(tail(g.1)).1 ` +
			`then <[], <[<head(g.1).1, head(g.1).2 + head(tail(g.1)).2>] ++ tail(tail(g.1))>> ` +
			`else <[head(g.1)], <tail(g.1)>>`
		unionVM = `\<l1, l2> -> if (length(l1) == 0) and (length(l2) == 0) then <[], <[], []>> ` +
			`else if length(l1) == 0 then <[head(l2)], <[], tail(l2)>> ` +
			`else if length(l2) == 0 then <[head(l1)], <tail(l1), []>> ` +
			`else if head(l1).1 < head(l2).1 then <[head(l1)], <tail(l1), l2>> ` +
			`else if head(l2).1 < head(l1).1 then <[head(l2)], <l1, tail(l2)>> ` +
			`else <[<head(l1).1, (head(l1).2 + head(l2).2)>], <tail(l1), tail(l2)>>`
	)
	r := rand.New(rand.NewSource(99))
	pairs, ints := stepTable(r, 2, 40), stepTable(r, 1, 40)
	for len(pairs.value) < 20 || len(ints.value) < 20 {
		pairs, ints = stepTable(r, 2, 40), stepTable(r, 1, 40)
	}
	cases := []diffCase{
		{src: "unfoldR[k1](" + dedup + ")(<[], L>)", inputs: map[string]diffTable{"L": ints},
			arities: map[string]int{"L": 1}},
		{src: "unfoldR[k1](" + groupby + ")(<R>)", inputs: map[string]diffTable{"R": pairs},
			arities: map[string]int{"R": 2}},
		{src: "unfoldR[k1](" + unionVM + ")(<A, B>)", inputs: map[string]diffTable{"A": pairs, "B": stepTable(r, 2, 30)},
			arities: map[string]int{"A": 2, "B": 2}},
		{src: "unfoldR[k1](funcPow[2](mrg))(<A, B, C, D>)",
			inputs:  map[string]diffTable{"A": ints, "B": stepTable(r, 1, 30), "C": stepTable(r, 1, 0), "D": stepTable(r, 1, 30)},
			arities: map[string]int{"A": 1, "B": 1, "C": 1, "D": 1}},
		{src: "unfoldR[k1](z[2])(<A, B>)", inputs: map[string]diffTable{"A": pairs, "B": pairs},
			arities: map[string]int{"A": 2, "B": 2}},
	}
	for _, c := range cases {
		for k := int64(1); k <= 4; k++ {
			for _, batch := range []int64{1, 7} {
				for _, pool := range []int64{0, 64} {
					c.params = map[string]int64{"k1": k}
					if run := assertMatchesInterp(t, c, batch, pool); run.err != nil {
						t.Fatalf("%s: %v", c.src, run.err)
					}
				}
			}
		}
	}
}

// TestUnfoldStepErrors: what the step grammar lets fail at run time fails
// with interp's text — on the same step, whatever the window size.
func TestUnfoldStepErrors(t *testing.T) {
	var ints diffTable
	for _, v := range []int32{0, 0, 1, 3, 3, 4, 7, 7, 9} {
		ints.rows, ints.value = append(ints.rows, v), append(ints.value, ocal.Int(v))
	}
	pairs := twoColTable(9, func(i int) (int32, int32) { return int32(i / 2), int32(i) })
	short := diffTable{rows: ints.rows[:4], value: ints.value[:4]}
	for _, tc := range []struct{ src, want string }{
		{`unfoldR[k1](\<a, b> -> <[head(b)], <a, tail(b)>>)(<[], L>)`, ""}, // fine: a is never read
		{`unfoldR[k1](\<a, b> -> <[head(a)], <a, tail(b)>>)(<[], L>)`, "interp: head of empty or non-list"},
		{`unfoldR[k1](\<a, b> -> <[head(b)], <tail(a), tail(b)>>)(<[], L>)`, "interp: tail of empty or non-list"},
		{`unfoldR[k1](\g -> <[head(tail(g.1))], <tail(g.1)>>)(<L>)`, "interp: head of empty or non-list"},
		{`unfoldR[k1](\g -> <[head(g.1)], <[head(g.1)] ++ tail(tail(g.1))>>)(<L>)`, "interp: tail of empty or non-list"},
		{`unfoldR[k1](\g -> <[(7 / head(g.1))], <tail(g.1)>>)(<L>)`, "interp: division by zero"},
		{`unfoldR[k1](\g -> <[head(g.1).1], <tail(g.1)>>)(<L>)`, "interp: projection .1 on non-tuple 0"},
		{`unfoldR[k1](\g -> <[head(g.1).3], <tail(g.1)>>)(<R>)`, "interp: projection .3 out of range (arity 2)"},
		{`unfoldR[k1](z[2])(<L, S>)`, "interp: z applied to ragged lists (head of empty list)"},
	} {
		c := diffCase{src: tc.src,
			inputs:  map[string]diffTable{"L": ints, "S": short, "R": pairs},
			arities: map[string]int{"L": 1, "S": 1, "R": 2}}
		for k := int64(1); k <= 5; k++ {
			c.params = map[string]int64{"k1": k}
			run := assertMatchesInterp(t, c, 3, 0)
			if got := fmt.Sprint(run.err); tc.want != "" && got != tc.want || tc.want == "" && run.err != nil {
				t.Errorf("%s at k1=%d: error %q, want %q", tc.src, k, got, tc.want)
			}
		}
	}
}

// TestUnfoldStepGrammarRejects: a step outside the grammar is a lowering
// error that prints the grammar — there is no interpreted fallback to take it.
func TestUnfoldStepGrammarRejects(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`unfoldR(\g -> <[head(g.1)], <g.1>>)(<R>)`, ""}, // emits for ever, but is in the grammar
		{`unfoldR(\g -> <[], <g.1>>)(<R>)`, "makes no progress"},
		{`unfoldR(\g -> <[], <[head(g.1)] ++ tail(g.1)>>)(<R>)`, "makes no progress"},
		{`unfoldR(\g -> <[head(g.1)], <[head(g.1)] ++ g.1>>)(<R>)`, "component 1 of next state"},
		{`unfoldR(\g -> <[head(g.1)], <tail(g.1)>> )(<R, R>)`, "is not a tuple of 2 lists"},
		{`unfoldR(\<a, b> -> <[head(a)], <tail(b), tail(a)>>)(<R, R>)`, "component 1 of next state"},
		{`unfoldR(\<a, b> -> <[head(a)], <tail(a)>>)(<R>)`, "the step takes 2 lists, the state has 1"},
		{`unfoldR(\g -> <[head(g.1)] ++ [head(g.1)], <tail(g.1)>>)(<R>)`, "chunk "},
		{`unfoldR(\g -> if length(g.1) < 2 then <[], <[]>> else <[head(g.1)], <tail(g.1)>>)(<R>)`, "condition "},
		{`unfoldR(\g -> <[head(g.1)], <[<<head(g.1).1, 2>, 1>] ++ tail(g.1)>>)(<R>)`, "component 1 of next state"},
		{`unfoldR(\g -> <[head(tail(tail(g.1)))], <tail(g.1)>>)(<R>)`, "emitted row "},
		{`unfoldR(\g -> if length(tail(tail(g.1))) == 0 then <[], <[]>> else <[head(g.1)], <tail(g.1)>>)(<R>)`, "condition "},
		{`unfoldR(\g -> <[head(g.1)], <tail(tail(tail(g.1)))>>)(<R>)`, "component 1 of next state"},
		{`unfoldR(mrg)(<R>)`, "a 2-way merge over 1 lists"},
		{`unfoldR(z[3])(<R, R>)`, "z[3] over 2 lists"},
		{`unfoldR(funcPow[1](z[2]))(<R, R>)`, "is not a merge"},
	} {
		requireLowering(t, tc.src, tc.want, stepGrammar)
	}
}

// TestUnfoldStallingLeaf: a leaf that only clears or replaces components
// lowers, and fails at the step that changes nothing.
func TestUnfoldStallingLeaf(t *testing.T) {
	sim, scratch, tb := allocTable(t)
	prog := ocal.MustParse(`unfoldR(\<seen, rest> -> <[], <[head(rest)], rest>>)(<[], R>)`)
	p, err := Lower(prog, LowerOpts{Sim: sim, Inputs: map[string]*Table{"R": tb}, Scratch: scratch, Sink: &Sink{Sim: sim}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err == nil || err.Error() != "exec: unfoldR step made no progress" {
		t.Fatalf("run: %v, want the no-progress error", err)
	}
}

// TestUnfoldSumStaysWide: a sum the step puts back lives in the window as
// int64 — compared un-truncated, narrowed only when it is emitted.
func TestUnfoldSumStaysWide(t *testing.T) {
	const big = 1<<31 - 1
	in := twoColTable(2, func(i int) (int32, int32) { return 1, big })
	// The group's sum, 2·(2^31-1), is -2 as an int32; the emitted row flags
	// whether the step still saw it as positive.
	src := `unfoldR[k1](\g -> if length(tail(g.1)) == 0 ` +
		`then (if head(g.1).2 > 0 then <[<1, head(g.1).2>], <[]>> else <[<0, head(g.1).2>], <[]>>) ` +
		`else <[], <[<head(g.1).1, head(g.1).2 + head(tail(g.1)).2>] ++ tail(tail(g.1))>>)(<R>)`
	c := diffCase{src: src, params: map[string]int64{"k1": 2},
		inputs: map[string]diffTable{"R": in}, arities: map[string]int{"R": 2}}
	run := assertMatchesInterp(t, c, 4, 0)
	if want := [][]int32{{1, -2}}; run.err != nil || fmt.Sprint(run.rows) != fmt.Sprint(want) {
		t.Fatalf("rows %v, err %v; want %v", run.rows, run.err, want)
	}
}
