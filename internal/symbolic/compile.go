package symbolic

import (
	"math"
	"sync"
)

// This file implements the compiled fast path for repeated evaluation. The
// parameter optimizer and the synthesizer's screening pass evaluate the same
// cost formulas many times under environments that differ only in a few
// tuning-parameter values; Expr.Eval walks the tree with one interface
// dispatch and one map lookup per node each time. Compile flattens a group of
// formulas (an objective and its constraints, say) into one register-form
// Program: every compound node is one instruction whose operands name a
// constant, a variable's value slot or an earlier instruction's result
// directly, and a subtree that the simplifier shared between several parents
// (Add and Mul reuse residual terms by pointer) is one instruction whose
// result every parent reads.
//
// The instructions are split at compile time. The bind part holds every
// instruction that depends only on constants and on variables that are not
// tuning parameters; Bind runs it once after those variables are set, which
// is once per minimization. The point part holds the rest and is all that
// runs per evaluation. Only whole subtrees move into the bind part: an n-ary
// sum or product with a single parameter-dependent term stays, with its
// left-to-right order and its 0.0 / 1.0 seed, in the point part.
//
// A compiled evaluation performs exactly the floating-point operations of
// Expr.Eval on exactly the same operands in exactly the same order, so it is
// bit-identical to the interpreted one — the synthesizer's winners (and hence
// served plans) do not depend on which path costed them.

type opcode uint8

const (
	opAdd opcode = iota // dst = 0.0 + args[a] + ... + args[a+n-1], left to right
	opMul               // dst = 1.0 * args[a] * ... * args[a+n-1], left to right
	opDiv               // dst = a / b
	opCeil
	opFloor
	opLog2
	opMax // running max over args[a:a+n] (NaN-preserving like Eval)
	opMin
	opAdd2 // opAdd over the two operands a and b
	opMul2 // opMul over the two operands a and b
)

// instr is one compound node. Operands are register indices: a and b for
// opDiv, a alone for the unary ops, and the n entries of Program.args from a
// on for the n-ary ops.
type instr struct {
	op   opcode
	dst  int32
	a, b int32
	n    int32
}

// root is one compiled expression: the register holding its value once its
// stretch of the point part has run (a root that depends on no parameter has
// an empty stretch and is ready after Bind).
type root struct {
	reg    int32
	lo, hi int32
}

// Program is a group of compiled expressions over one register file, laid
// out as constants, then variable slots, then instruction results. It holds
// its own evaluation state, so a Program must not be used from several
// goroutines at once; compile one per goroutine (compilation is a single
// tree walk).
type Program struct {
	regs  []float64
	vars  []string // variable of each slot; slot i is register slot0+i
	slot0 int32
	pslot []int32 // registers of the tuning parameters, in Compile's order
	bind  []instr
	point []instr
	args  []int32
	roots []root
}

// Operand references carry a tag while the program is being built, because
// the constant and slot regions are not sized until every root is emitted;
// finish rewrites them to register indices.
const (
	tagConst = 1 << 29
	tagSlot  = 1 << 30
	tagMask  = tagConst | tagSlot
)

// compiler is the scratch of one Compile. The screening pass compiles a
// fresh group for every program of a search space and evaluates it a handful
// of times, so compilation is most of its cost there: compilers are pooled,
// and the Program gets exact-size copies of what was built.
type compiler struct {
	consts  []float64
	vars    []string
	isParam []bool // per slot
	inPoint []bool // per result
	bind    []instr
	point   []instr
	args    []int32
	// The compound nodes of the current root and their results, by node type.
	// A scan over a few dozen pointers is cheaper than a map insert per node.
	naries  []seenNode[*nary]
	divs    []seenNode[*div]
	unaries []seenNode[*unary]
	minmaxs []seenNode[*minmax]
}

type seenNode[T comparable] struct {
	node T
	res  int32
}

func findSeen[T comparable](seen []seenNode[T], node T) (res int32, ok bool) {
	for i := range seen {
		if seen[i].node == node {
			return seen[i].res, true
		}
	}
	return 0, false
}

var compilerPool = sync.Pool{New: func() any { return new(compiler) }}

// Compile flattens exprs into one Program. params names the variables whose
// values change from one evaluation to the next (SetPoint); every other
// variable is written with Set and takes effect at the next Bind, and one
// that is never written evaluates to NaN — the same contract as Expr.Eval
// under an env that lacks it. Each parameter gets a slot whether or not a
// formula mentions it.
func Compile(exprs []Expr, params []string) *Program {
	c := compilerPool.Get().(*compiler)
	defer compilerPool.Put(c)
	c.consts, c.vars, c.isParam, c.inPoint = c.consts[:0], c.vars[:0], c.isParam[:0], c.inPoint[:0]
	c.bind, c.point, c.args = c.bind[:0], c.point[:0], c.args[:0]

	p := &Program{pslot: make([]int32, len(params)), roots: make([]root, len(exprs))}
	for i, name := range params {
		p.pslot[i] = c.slot(name)
		c.isParam[p.pslot[i]] = true
	}
	for i, e := range exprs {
		// Results are shared within a root only, so that each root's stretch
		// of the point part can run without the others having run.
		c.naries, c.divs, c.unaries, c.minmaxs = c.naries[:0], c.divs[:0], c.unaries[:0], c.minmaxs[:0]
		lo := int32(len(c.point))
		reg, _ := c.emit(e)
		p.roots[i] = root{reg: reg, lo: lo, hi: int32(len(c.point))}
	}
	c.finish(p)
	return p
}

func (c *compiler) slot(name string) int32 {
	for i, v := range c.vars {
		if v == name {
			return int32(i)
		}
	}
	c.vars = append(c.vars, name)
	c.isParam = append(c.isParam, false)
	return int32(len(c.vars) - 1)
}

// emit compiles e and returns the (tagged) reference to its value and whether
// that value depends on a tuning parameter.
func (c *compiler) emit(e Expr) (ref int32, point bool) {
	var in instr
	switch t := e.(type) {
	case Const:
		c.consts = append(c.consts, float64(t))
		return tagConst | int32(len(c.consts)-1), false
	case Var:
		s := c.slot(string(t))
		return tagSlot | s, c.isParam[s]
	case *nary:
		if res, ok := findSeen(c.naries, t); ok {
			return res, c.inPoint[res]
		}
		if len(t.terms) == 2 {
			var pa, pb bool
			in.op = opAdd2
			if t.op == "*" {
				in.op = opMul2
			}
			in.a, pa = c.emit(t.terms[0])
			in.b, pb = c.emit(t.terms[1])
			point = pa || pb
		} else {
			in.op = opAdd
			if t.op == "*" {
				in.op = opMul
			}
			in.a, in.n, point = c.operands(t.terms)
		}
		ref = c.add(in, point)
		c.naries = append(c.naries, seenNode[*nary]{t, ref})
	case *div:
		if res, ok := findSeen(c.divs, t); ok {
			return res, c.inPoint[res]
		}
		var pa, pb bool
		in.op = opDiv
		in.a, pa = c.emit(t.num)
		in.b, pb = c.emit(t.den)
		point = pa || pb
		ref = c.add(in, point)
		c.divs = append(c.divs, seenNode[*div]{t, ref})
	case *unary:
		if res, ok := findSeen(c.unaries, t); ok {
			return res, c.inPoint[res]
		}
		switch t.op {
		case "ceil":
			in.op = opCeil
		case "floor":
			in.op = opFloor
		case "log2":
			in.op = opLog2
		default:
			panic("symbolic: cannot compile unary " + t.op)
		}
		in.a, point = c.emit(t.arg)
		ref = c.add(in, point)
		c.unaries = append(c.unaries, seenNode[*unary]{t, ref})
	case *minmax:
		if res, ok := findSeen(c.minmaxs, t); ok {
			return res, c.inPoint[res]
		}
		in.op = opMax
		if t.op == "min" {
			in.op = opMin
		}
		in.a, in.n, point = c.operands(t.terms)
		ref = c.add(in, point)
		c.minmaxs = append(c.minmaxs, seenNode[*minmax]{t, ref})
	}
	return ref, point
}

// add appends one instruction to the part it belongs to and returns the
// reference to its result.
func (c *compiler) add(in instr, point bool) int32 {
	in.dst = int32(len(c.inPoint))
	c.inPoint = append(c.inPoint, point)
	if point {
		c.point = append(c.point, in)
	} else {
		c.bind = append(c.bind, in)
	}
	return in.dst
}

// operands compiles the terms of an n-ary node and appends their references
// to args as one contiguous run (nested n-ary terms append theirs first).
func (c *compiler) operands(terms []Expr) (start, n int32, point bool) {
	var buf [8]int32
	refs := buf[:0]
	for _, t := range terms {
		ref, p := c.emit(t)
		refs = append(refs, ref)
		point = point || p
	}
	start = int32(len(c.args))
	c.args = append(c.args, refs...)
	return start, int32(len(refs)), point
}

// finish sizes p's register file and fills p with what was built, tagged
// references rewritten to register indices.
func (c *compiler) finish(p *Program) {
	nconst, nslot := int32(len(c.consts)), int32(len(c.vars))
	reg := func(ref int32) int32 {
		switch ref & tagMask {
		case tagConst:
			return ref &^ tagMask
		case tagSlot:
			return nconst + ref&^tagMask
		}
		return nconst + nslot + ref
	}
	p.regs = make([]float64, int(nconst+nslot)+len(c.inPoint))
	copy(p.regs, c.consts)
	for i := nconst; i < nconst+nslot; i++ {
		p.regs[i] = math.NaN()
	}
	p.vars, p.slot0 = append([]string(nil), c.vars...), nconst
	for i := range p.pslot {
		p.pslot[i] += nconst
	}
	p.args = make([]int32, len(c.args))
	for i, ref := range c.args {
		p.args[i] = reg(ref)
	}
	code := make([]instr, len(c.bind)+len(c.point))
	p.bind, p.point = code[:len(c.bind):len(c.bind)], code[len(c.bind):]
	copy(p.bind, c.bind)
	copy(p.point, c.point)
	for i := range code {
		in := &code[i]
		in.dst = reg(in.dst)
		switch in.op {
		case opAdd, opMul, opMax, opMin:
		case opDiv, opAdd2, opMul2:
			in.a, in.b = reg(in.a), reg(in.b)
		default:
			in.a = reg(in.a)
		}
	}
	for i := range p.roots {
		p.roots[i].reg = reg(p.roots[i].reg)
	}
}

// Slot resolves a variable to its register, for Set; ok is false when no
// formula mentions the name and it is not a parameter.
func (p *Program) Slot(name string) (slot int32, ok bool) {
	for i, v := range p.vars {
		if v == name {
			return p.slot0 + int32(i), true
		}
	}
	return 0, false
}

// Set writes a variable that is not a tuning parameter. The new value takes
// effect at the next Bind.
func (p *Program) Set(slot int32, v float64) { p.regs[slot] = v }

// Bind runs the bind part: everything that the variables written with Set
// determine on their own. Call it after the last Set and before evaluating.
func (p *Program) Bind() { p.run(p.bind) }

// SetPoint writes the tuning parameters, in Compile's params order, for the
// evaluations that follow.
func (p *Program) SetPoint(vals []int64) {
	for i, s := range p.pslot {
		p.regs[s] = float64(vals[i])
	}
}

// Eval evaluates one root at the current point.
func (p *Program) Eval(i int) float64 {
	r := p.roots[i]
	p.run(p.point[r.lo:r.hi])
	return p.regs[r.reg]
}

// EvalAll evaluates every root at the current point in one pass; Value then
// reads them.
func (p *Program) EvalAll() { p.run(p.point) }

// Value is root i as the last EvalAll (or Eval(i)) left it.
func (p *Program) Value(i int) float64 { return p.regs[p.roots[i].reg] }

func (p *Program) run(code []instr) {
	r, args := p.regs, p.args
	for i := range code {
		in := &code[i]
		switch in.op {
		case opAdd:
			s := 0.0
			for _, a := range args[in.a : in.a+in.n] {
				s += r[a]
			}
			r[in.dst] = s
		case opMul:
			s := 1.0
			for _, a := range args[in.a : in.a+in.n] {
				s *= r[a]
			}
			r[in.dst] = s
		case opAdd2:
			s := 0.0
			s += r[in.a]
			s += r[in.b]
			r[in.dst] = s
		case opMul2:
			s := 1.0
			s *= r[in.a]
			s *= r[in.b]
			r[in.dst] = s
		case opDiv:
			r[in.dst] = r[in.a] / r[in.b]
		case opCeil:
			r[in.dst] = math.Ceil(r[in.a])
		case opFloor:
			r[in.dst] = math.Floor(r[in.a])
		case opLog2:
			r[in.dst] = math.Log2(r[in.a])
		case opMax:
			ops := args[in.a : in.a+in.n]
			best := r[ops[0]]
			for _, a := range ops[1:] {
				if x := r[a]; x > best {
					best = x
				}
			}
			r[in.dst] = best
		case opMin:
			ops := args[in.a : in.a+in.n]
			best := r[ops[0]]
			for _, a := range ops[1:] {
				if x := r[a]; x < best {
					best = x
				}
			}
			r[in.dst] = best
		}
	}
}
