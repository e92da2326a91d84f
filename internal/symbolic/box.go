package symbolic

import "math"

// This file evaluates one compiled root over a box of parameter values in
// interval arithmetic, for callers that want to prove a bound rather than
// compute a value: the synthesizer skips tuning a member whose objective
// provably cannot beat the best cost tuned so far.
//
// An interval [lo, hi] encloses what Eval computes, bit for bit, at every
// point of the box. Each +, * and / result, and each step of an n-ary fold,
// is rounded outward with math.Nextafter; log2 is widened by a few ulps,
// because math.Log2 is not correctly rounded and so only nearly monotone;
// ceil and max are exact. NaN never appears in an interval: wherever Eval may
// produce NaN (an unbound variable, ∞−∞, 0·∞, a denominator interval that
// contains 0, the log2 of a negative), the interval is [-Inf, +Inf], and
// every operation maps an operand that may be NaN to a result that may be.

// BoxBegin starts interval evaluation at the current binding: it copies the
// register file into the two interval register files, an unbound (NaN)
// register as [-Inf, +Inf]. Call it after Bind and before BoxRoot.
func (p *Program) BoxBegin() {
	if len(p.blo) != len(p.regs) {
		p.blo, p.bhi = make([]float64, len(p.regs)), make([]float64, len(p.regs))
	}
	for i, v := range p.regs {
		p.blo[i], p.bhi[i] = v, v
		if math.IsNaN(v) {
			p.blo[i], p.bhi[i] = math.Inf(-1), math.Inf(1)
		}
	}
}

// BoxRoot encloses root i over the box whose parameter j ranges over
// [plo[j], phi[j]], in Compile's params order. It runs only the root's own
// stretch of the point part, which no other root's results feed.
func (p *Program) BoxRoot(i int, plo, phi []int64) (lo, hi float64) {
	for j, s := range p.pslot {
		p.blo[s], p.bhi[s] = float64(plo[j]), float64(phi[j])
	}
	r := p.roots[i]
	p.runBox(p.point[r.lo:r.hi])
	return p.blo[r.reg], p.bhi[r.reg]
}

func down(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
func up(x float64) float64   { return math.Nextafter(x, math.Inf(1)) }

// log2Out is math.Log2(x) moved by dir·(|y|+1)·2^-50 (dir is ±1), several
// times the function's error, so that it bounds math.Log2 at every point on
// the far side of x.
func log2Out(x, dir float64) float64 {
	y := math.Log2(x)
	if math.IsInf(y, 0) {
		return y
	}
	return y + dir*(math.Abs(y)+1)*0x1p-50
}

// mulOut encloses the product of two intervals: the extremes of the four
// corner products, rounded outward. A 0·∞ corner yields NaN, which the
// caller widens.
func mulOut(al, ah, bl, bh float64) (lo, hi float64) {
	c1, c2, c3, c4 := al*bl, al*bh, ah*bl, ah*bh
	return down(min(c1, c2, c3, c4)), up(max(c1, c2, c3, c4))
}

func (p *Program) runBox(code []instr) {
	lo, hi, args := p.blo, p.bhi, p.args
	for i := range code {
		in := &code[i]
		var l, h float64
		switch in.op {
		case opAdd:
			for _, a := range args[in.a : in.a+in.n] {
				l, h = down(l+lo[a]), up(h+hi[a])
			}
		case opAdd2:
			l, h = down(lo[in.a]+lo[in.b]), up(hi[in.a]+hi[in.b])
		case opMul:
			l, h = 1, 1
			for _, a := range args[in.a : in.a+in.n] {
				l, h = mulOut(l, h, lo[a], hi[a])
			}
		case opMul2:
			l, h = mulOut(lo[in.a], hi[in.a], lo[in.b], hi[in.b])
		case opDiv:
			bl, bh := lo[in.b], hi[in.b]
			if bl <= 0 && bh >= 0 {
				l, h = math.NaN(), math.NaN()
				break
			}
			al, ah := lo[in.a], hi[in.a]
			c1, c2, c3, c4 := al/bl, al/bh, ah/bl, ah/bh
			l, h = down(min(c1, c2, c3, c4)), up(max(c1, c2, c3, c4))
		case opCeil:
			l, h = math.Ceil(lo[in.a]), math.Ceil(hi[in.a])
		case opLog2:
			if lo[in.a] < 0 {
				l, h = math.NaN(), math.NaN()
				break
			}
			l, h = log2Out(lo[in.a], -1), log2Out(hi[in.a], 1)
		case opMax:
			ops := args[in.a : in.a+in.n]
			l, h = lo[ops[0]], hi[ops[0]]
			// Eval keeps a NaN first operand and skips a later one, and a
			// later operand that may be NaN has lo = -Inf already.
			if math.IsInf(l, -1) && math.IsInf(h, 1) {
				break
			}
			for _, a := range ops[1:] {
				l, h = max(l, lo[a]), max(h, hi[a])
			}
		}
		if math.IsNaN(l) || math.IsNaN(h) {
			l, h = math.Inf(-1), math.Inf(1)
		}
		lo[in.dst], hi[in.dst] = l, h
	}
}
