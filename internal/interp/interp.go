// Package interp is the reference interpreter for OCAL. It defines the
// semantics of the language and serves as the equivalence oracle for the
// transformation rules: every rewrite OCAS performs must leave the
// interpreted meaning of the program unchanged, and the rule tests verify
// exactly that on randomized inputs.
package interp

import (
	"errors"
	"fmt"

	"ocas/internal/ocal"
)

// MaxUnfoldSteps guards unfoldR against non-productive step functions.
const MaxUnfoldSteps = 50_000_000

// val is a runtime value: either an ocal.Value or a function value.
type val interface{}

// funcVal is a function value (closure or builtin definition).
type funcVal struct {
	apply func(ocal.Value) (val, error)
}

// env is a persistent binding environment.
type env struct {
	name   string
	v      val
	parent *env
}

func (e *env) lookup(name string) (val, bool) {
	for n := e; n != nil; n = n.parent {
		if n.name == name {
			return n.v, true
		}
	}
	return nil, false
}

func (e *env) bind(name string, v val) *env {
	return &env{name: name, v: v, parent: e}
}

// Interp evaluates OCAL expressions with a fixed binding of symbolic
// parameters (block sizes etc.).
type Interp struct {
	params map[string]int64
}

// New returns an interpreter that resolves symbolic parameters via params
// (missing parameters default to 1).
func New(params map[string]int64) *Interp {
	return &Interp{params: params}
}

// Eval evaluates a closed, first-order expression: inputs provides the free
// variables, and the result must be a data value (not a function).
func (it *Interp) Eval(e ocal.Expr, inputs map[string]ocal.Value) (ocal.Value, error) {
	var en *env
	for k, v := range inputs {
		en = en.bind(k, v)
	}
	r, err := it.eval(e, en)
	if err != nil {
		return nil, err
	}
	dv, ok := r.(ocal.Value)
	if !ok {
		return nil, fmt.Errorf("interp: program evaluated to a function, not a value")
	}
	return dv, nil
}

// Eval evaluates e with a fresh interpreter and the given inputs and params.
func Eval(e ocal.Expr, inputs map[string]ocal.Value, params map[string]int64) (ocal.Value, error) {
	return New(params).Eval(e, inputs)
}

func (it *Interp) param(p ocal.Param) int64 {
	n := p.Bind(it.params)
	if n < 1 {
		return 1
	}
	return n
}

func (it *Interp) eval(e ocal.Expr, en *env) (val, error) {
	switch t := e.(type) {
	case ocal.Var:
		v, ok := en.lookup(t.Name)
		if !ok {
			return nil, fmt.Errorf("interp: unbound variable %q", t.Name)
		}
		return v, nil
	case ocal.IntLit:
		return ocal.Int(t.V), nil
	case ocal.BoolLit:
		return ocal.Bool(t.V), nil
	case ocal.StrLit:
		return ocal.Str(t.V), nil
	case ocal.Lam:
		return it.makeClosure(t, en), nil
	case ocal.App:
		fn, err := it.eval(t.Fn, en)
		if err != nil {
			return nil, err
		}
		f, ok := fn.(*funcVal)
		if !ok {
			return nil, fmt.Errorf("interp: applying non-function %s", ocal.String(t.Fn))
		}
		arg, err := it.evalValue(t.Arg, en)
		if err != nil {
			return nil, err
		}
		return f.apply(arg)
	case ocal.Tup:
		out := make(ocal.Tuple, len(t.Elems))
		for i, el := range t.Elems {
			v, err := it.evalValue(el, en)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case ocal.Proj:
		v, err := it.evalValue(t.E, en)
		if err != nil {
			return nil, err
		}
		tup, ok := v.(ocal.Tuple)
		if !ok {
			return nil, fmt.Errorf("interp: projection .%d on non-tuple %s", t.I, v)
		}
		if t.I < 1 || t.I > len(tup) {
			return nil, fmt.Errorf("interp: projection .%d out of range (arity %d)", t.I, len(tup))
		}
		return tup[t.I-1], nil
	case ocal.Single:
		v, err := it.evalValue(t.E, en)
		if err != nil {
			return nil, err
		}
		return ocal.List{v}, nil
	case ocal.Empty:
		return ocal.List{}, nil
	case ocal.If:
		c, err := it.evalValue(t.Cond, en)
		if err != nil {
			return nil, err
		}
		b, ok := c.(ocal.Bool)
		if !ok {
			return nil, fmt.Errorf("interp: if condition is not boolean: %s", c)
		}
		if bool(b) {
			return it.eval(t.Then, en)
		}
		return it.eval(t.Else, en)
	case ocal.Prim:
		return it.evalPrim(t, en)
	case ocal.FlatMap:
		fn, err := it.evalFunc(t.Fn, en)
		if err != nil {
			return nil, err
		}
		return &funcVal{apply: func(arg ocal.Value) (val, error) {
			l, ok := arg.(ocal.List)
			if !ok {
				return nil, fmt.Errorf("interp: flatMap over non-list %s", arg)
			}
			var out ocal.List
			for _, v := range l {
				r, err := fn.apply(v)
				if err != nil {
					return nil, err
				}
				rl, ok := r.(ocal.List)
				if !ok {
					return nil, fmt.Errorf("interp: flatMap body must return a list")
				}
				out = append(out, rl...)
			}
			return out, nil
		}}, nil
	case ocal.FoldL:
		fn, err := it.evalFunc(t.Fn, en)
		if err != nil {
			return nil, err
		}
		init, err := it.evalValue(t.Init, en)
		if err != nil {
			return nil, err
		}
		return &funcVal{apply: func(arg ocal.Value) (val, error) {
			l, ok := arg.(ocal.List)
			if !ok {
				return nil, fmt.Errorf("interp: foldL over non-list %s", arg)
			}
			acc := init
			for _, v := range l {
				r, err := fn.apply(ocal.Tuple{acc, v})
				if err != nil {
					return nil, err
				}
				rv, ok := r.(ocal.Value)
				if !ok {
					return nil, errors.New("interp: foldL step returned a function")
				}
				acc = rv
			}
			return acc, nil
		}}, nil
	case ocal.For:
		return it.evalFor(t, en)
	case ocal.TreeFold:
		return it.evalTreeFold(t, en)
	case ocal.UnfoldR:
		return it.evalUnfoldR(t, en)
	case ocal.Mrg:
		return mrgStep(), nil
	case ocal.ZipStep:
		return zipStep(t.N), nil
	case ocal.FuncPow:
		return it.evalFuncPow(t, en)
	case ocal.PartitionF:
		s := it.param(t.S)
		return &funcVal{apply: func(arg ocal.Value) (val, error) {
			l, ok := arg.(ocal.List)
			if !ok {
				return nil, fmt.Errorf("interp: partition over non-list %s", arg)
			}
			buckets := make([]ocal.List, s)
			for _, v := range l {
				key := v
				if tup, ok := v.(ocal.Tuple); ok && len(tup) > 0 {
					key = tup[0]
				}
				b := ocal.Hash(key) % uint64(s)
				buckets[b] = append(buckets[b], v)
			}
			out := make(ocal.List, s)
			for i, b := range buckets {
				out[i] = b
			}
			return out, nil
		}}, nil
	case ocal.ZipLists:
		return &funcVal{apply: func(arg ocal.Value) (val, error) {
			tup, ok := arg.(ocal.Tuple)
			if !ok || len(tup) != t.N {
				return nil, fmt.Errorf("interp: zip expects a %d-tuple", t.N)
			}
			lists := make([]ocal.List, t.N)
			n := -1
			for i, v := range tup {
				l, ok := v.(ocal.List)
				if !ok {
					return nil, fmt.Errorf("interp: zip component %d is not a list", i+1)
				}
				if n == -1 {
					n = len(l)
				} else if len(l) != n {
					return nil, fmt.Errorf("interp: zip over ragged lists (%d vs %d)", n, len(l))
				}
				lists[i] = l
			}
			out := make(ocal.List, n)
			for i := 0; i < n; i++ {
				row := make(ocal.Tuple, t.N)
				for j := range lists {
					row[j] = lists[j][i]
				}
				out[i] = row
			}
			return out, nil
		}}, nil
	}
	return nil, fmt.Errorf("interp: cannot evaluate %T", e)
}

// evalValue evaluates e and requires a data value.
func (it *Interp) evalValue(e ocal.Expr, en *env) (ocal.Value, error) {
	v, err := it.eval(e, en)
	if err != nil {
		return nil, err
	}
	dv, ok := v.(ocal.Value)
	if !ok {
		return nil, fmt.Errorf("interp: expected a value, got a function (%s)", ocal.String(e))
	}
	return dv, nil
}

// evalFunc evaluates e and requires a function value.
func (it *Interp) evalFunc(e ocal.Expr, en *env) (*funcVal, error) {
	v, err := it.eval(e, en)
	if err != nil {
		return nil, err
	}
	f, ok := v.(*funcVal)
	if !ok {
		return nil, fmt.Errorf("interp: expected a function, got %v (%s)", v, ocal.String(e))
	}
	return f, nil
}

func (it *Interp) makeClosure(l ocal.Lam, en *env) *funcVal {
	return &funcVal{apply: func(arg ocal.Value) (val, error) {
		ne := en
		if len(l.Params) == 1 {
			ne = ne.bind(l.Params[0], arg)
		} else {
			tup, ok := arg.(ocal.Tuple)
			if !ok || len(tup) != len(l.Params) {
				return nil, fmt.Errorf("interp: lambda expects a %d-tuple, got %s", len(l.Params), arg)
			}
			for i, p := range l.Params {
				ne = ne.bind(p, tup[i])
			}
		}
		return it.eval(l.Body, ne)
	}}
}

func (it *Interp) evalFor(f ocal.For, en *env) (val, error) {
	src, err := it.evalValue(f.Src, en)
	if err != nil {
		return nil, err
	}
	l, ok := src.(ocal.List)
	if !ok {
		return nil, fmt.Errorf("interp: for source is not a list: %s", src)
	}
	k := it.param(f.K)
	var out ocal.List
	step := func(x ocal.Value) error {
		r, err := it.evalValue(f.Body, en.bind(f.X, x))
		if err != nil {
			return err
		}
		rl, ok := r.(ocal.List)
		if !ok {
			return fmt.Errorf("interp: for body must produce a list, got %s", r)
		}
		out = append(out, rl...)
		return nil
	}
	if f.K.IsOne() {
		for _, v := range l {
			if err := step(v); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for i := 0; i < len(l); i += int(k) {
		j := i + int(k)
		if j > len(l) {
			j = len(l)
		}
		block := make(ocal.List, j-i)
		copy(block, l[i:j])
		if err := step(block); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (it *Interp) evalTreeFold(t ocal.TreeFold, en *env) (val, error) {
	k := int(it.param(t.K))
	if k < 2 {
		k = 2
	}
	init, err := it.evalValue(t.Init, en)
	if err != nil {
		return nil, err
	}
	fn, err := it.evalFunc(t.Fn, en)
	if err != nil {
		return nil, err
	}
	return &funcVal{apply: func(arg ocal.Value) (val, error) {
		seed, ok := arg.(ocal.List)
		if !ok {
			return nil, fmt.Errorf("interp: treeFold over non-list %s", arg)
		}
		if len(seed) == 0 {
			return init, nil
		}
		queue := make([]ocal.Value, len(seed))
		copy(queue, seed)
		for len(queue) > 1 {
			take := k
			if take > len(queue) {
				take = len(queue)
			}
			group := make(ocal.Tuple, k)
			for i := 0; i < k; i++ {
				if i < take {
					group[i] = queue[i]
				} else {
					group[i] = init
				}
			}
			queue = queue[take:]
			r, err := fn.apply(group)
			if err != nil {
				return nil, err
			}
			rv, ok := r.(ocal.Value)
			if !ok {
				return nil, errors.New("interp: treeFold step returned a function")
			}
			queue = append(queue, rv)
		}
		return queue[0], nil
	}}, nil
}

func (it *Interp) evalUnfoldR(u ocal.UnfoldR, en *env) (val, error) {
	fn, err := it.evalFunc(u.Fn, en)
	if err != nil {
		return nil, err
	}
	return &funcVal{apply: func(arg ocal.Value) (val, error) {
		state, ok := arg.(ocal.Tuple)
		if !ok {
			return nil, fmt.Errorf("interp: unfoldR state must be a tuple of lists, got %s", arg)
		}
		var out ocal.List
		for steps := 0; ; steps++ {
			if steps > MaxUnfoldSteps {
				return nil, errors.New("interp: unfoldR exceeded step limit (non-productive step?)")
			}
			done := true
			for _, c := range state {
				l, ok := c.(ocal.List)
				if !ok {
					return nil, fmt.Errorf("interp: unfoldR state component is not a list: %s", c)
				}
				if len(l) > 0 {
					done = false
					break
				}
			}
			if done {
				return out, nil
			}
			r, err := fn.apply(state)
			if err != nil {
				return nil, err
			}
			pair, ok := r.(ocal.Tuple)
			if !ok || len(pair) != 2 {
				return nil, errors.New("interp: unfoldR step must return <chunk, state>")
			}
			chunk, ok := pair[0].(ocal.List)
			if !ok {
				return nil, errors.New("interp: unfoldR chunk must be a list")
			}
			next, ok := pair[1].(ocal.Tuple)
			if !ok {
				return nil, errors.New("interp: unfoldR next state must be a tuple")
			}
			if len(chunk) == 0 && totalLen(next) >= totalLen(state) {
				return nil, errors.New("interp: unfoldR step made no progress")
			}
			out = append(out, chunk...)
			state = next
		}
	}}, nil
}

func totalLen(t ocal.Tuple) int {
	n := 0
	for _, c := range t {
		if l, ok := c.(ocal.List); ok {
			n += len(l)
		}
	}
	return n
}

func (it *Interp) evalFuncPow(p ocal.FuncPow, en *env) (val, error) {
	if _, isMrg := p.Fn.(ocal.Mrg); isMrg {
		return kWayMergeStep(1 << p.K), nil
	}
	fn, err := it.evalFunc(p.Fn, en)
	if err != nil {
		return nil, err
	}
	n := 1 << p.K
	return &funcVal{apply: func(arg ocal.Value) (val, error) {
		tup, ok := arg.(ocal.Tuple)
		if !ok || len(tup) != n {
			return nil, fmt.Errorf("interp: funcPow[%d] expects a %d-tuple", p.K, n)
		}
		return applyBalanced(fn, tup)
	}}, nil
}

// applyBalanced applies the binary f over args as a balanced tree
// (Figure 2's funcPow definition).
func applyBalanced(f *funcVal, args ocal.Tuple) (val, error) {
	if len(args) == 1 {
		return args[0], nil
	}
	half := len(args) / 2
	lv, err := applyBalanced(f, args[:half])
	if err != nil {
		return nil, err
	}
	rv, err := applyBalanced(f, args[half:])
	if err != nil {
		return nil, err
	}
	l, ok1 := lv.(ocal.Value)
	r, ok2 := rv.(ocal.Value)
	if !ok1 || !ok2 {
		return nil, errors.New("interp: funcPow subresult is a function")
	}
	return f.apply(ocal.Tuple{l, r})
}

// mrgStep implements mrg of Figure 2: emit the smaller head of two sorted
// lists.
func mrgStep() *funcVal {
	return kWayMergeStep(2)
}

// kWayMergeStep is the 2^k-way merge step used as the code-generator plugin
// for funcPow[k](mrg) (Section 7.2): among the non-empty lists, output the
// minimum head and advance that list.
func kWayMergeStep(n int) *funcVal {
	return &funcVal{apply: func(arg ocal.Value) (val, error) {
		state, ok := arg.(ocal.Tuple)
		if !ok || len(state) != n {
			return nil, fmt.Errorf("interp: merge step expects a %d-tuple of lists", n)
		}
		best := -1
		var bestV ocal.Value
		for i, c := range state {
			l, ok := c.(ocal.List)
			if !ok {
				return nil, fmt.Errorf("interp: merge state component is not a list")
			}
			if len(l) == 0 {
				continue
			}
			if best == -1 || ocal.ValueCompare(l[0], bestV) < 0 {
				best, bestV = i, l[0]
			}
		}
		if best == -1 {
			return ocal.Tuple{ocal.List{}, state}, nil
		}
		next := make(ocal.Tuple, n)
		copy(next, state)
		next[best] = state[best].(ocal.List)[1:]
		return ocal.Tuple{ocal.List{bestV}, next}, nil
	}}
}

// zipStep implements z of Figure 2.
func zipStep(n int) *funcVal {
	return &funcVal{apply: func(arg ocal.Value) (val, error) {
		state, ok := arg.(ocal.Tuple)
		if !ok || len(state) != n {
			return nil, fmt.Errorf("interp: z expects a %d-tuple of lists", n)
		}
		row := make(ocal.Tuple, n)
		next := make(ocal.Tuple, n)
		for i, c := range state {
			l, ok := c.(ocal.List)
			if !ok {
				return nil, fmt.Errorf("interp: z state component is not a list")
			}
			if len(l) == 0 {
				return nil, errors.New("interp: z applied to ragged lists (head of empty list)")
			}
			row[i] = l[0]
			next[i] = l[1:]
		}
		return ocal.Tuple{ocal.List{row}, next}, nil
	}}
}

func (it *Interp) evalPrim(p ocal.Prim, en *env) (val, error) {
	args := make([]ocal.Value, len(p.Args))
	for i, a := range p.Args {
		v, err := it.evalValue(a, en)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch p.Op {
	case ocal.OpEq:
		return ocal.Bool(ocal.ValueEq(args[0], args[1])), nil
	case ocal.OpNe:
		return ocal.Bool(!ocal.ValueEq(args[0], args[1])), nil
	case ocal.OpLt:
		return ocal.Bool(ocal.ValueCompare(args[0], args[1]) < 0), nil
	case ocal.OpLe:
		return ocal.Bool(ocal.ValueCompare(args[0], args[1]) <= 0), nil
	case ocal.OpGt:
		return ocal.Bool(ocal.ValueCompare(args[0], args[1]) > 0), nil
	case ocal.OpGe:
		return ocal.Bool(ocal.ValueCompare(args[0], args[1]) >= 0), nil
	case ocal.OpAdd, ocal.OpSub, ocal.OpMul, ocal.OpDiv, ocal.OpMod:
		a, ok1 := args[0].(ocal.Int)
		b, ok2 := args[1].(ocal.Int)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("interp: arithmetic on non-integers %s, %s", args[0], args[1])
		}
		switch p.Op {
		case ocal.OpAdd:
			return a + b, nil
		case ocal.OpSub:
			return a - b, nil
		case ocal.OpMul:
			return a * b, nil
		case ocal.OpDiv:
			if b == 0 {
				return nil, errors.New("interp: division by zero")
			}
			return a / b, nil
		default:
			if b == 0 {
				return nil, errors.New("interp: modulo by zero")
			}
			return a % b, nil
		}
	case ocal.OpAnd:
		return ocal.Bool(bool(args[0].(ocal.Bool)) && bool(args[1].(ocal.Bool))), nil
	case ocal.OpOr:
		return ocal.Bool(bool(args[0].(ocal.Bool)) || bool(args[1].(ocal.Bool))), nil
	case ocal.OpNot:
		b, ok := args[0].(ocal.Bool)
		if !ok {
			return nil, fmt.Errorf("interp: not on non-boolean %s", args[0])
		}
		return ocal.Bool(!bool(b)), nil
	case ocal.OpConcat:
		a, ok1 := args[0].(ocal.List)
		b, ok2 := args[1].(ocal.List)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("interp: ++ on non-lists")
		}
		out := make(ocal.List, 0, len(a)+len(b))
		out = append(out, a...)
		out = append(out, b...)
		return out, nil
	case ocal.OpHead:
		l, ok := args[0].(ocal.List)
		if !ok || len(l) == 0 {
			return nil, errors.New("interp: head of empty or non-list")
		}
		return l[0], nil
	case ocal.OpTail:
		l, ok := args[0].(ocal.List)
		if !ok || len(l) == 0 {
			return nil, errors.New("interp: tail of empty or non-list")
		}
		return l[1:], nil
	case ocal.OpLength:
		l, ok := args[0].(ocal.List)
		if !ok {
			return nil, errors.New("interp: length of non-list")
		}
		return ocal.Int(len(l)), nil
	case ocal.OpHash:
		return ocal.Int(ocal.Hash(args[0]) & 0x7fffffffffffffff), nil
	}
	return nil, fmt.Errorf("interp: unknown primitive %v", p.Op)
}
