package symbolic

// Sum computes a closed form for sum_{i=0}^{n-1} body(i), where body may
// mention the index variable idx. The OCAS cost estimator produces such sums
// when costing foldL: the accumulator grows with the iteration index, so the
// per-iteration transfer cost is (at most) linear in i. The paper's "basic
// engine for simplifying arithmetic expressions, capable of finding closed
// forms of some sums" is reproduced here for polynomial dependence on the
// index of degree <= 2; higher degrees and non-polynomial dependence fall
// back to a worst-case bound n * body(n-1), which keeps the estimate an
// upper bound in the spirit of the paper's worst-case analysis.
//
// Closed forms used:
//
//	sum_{i=0}^{n-1} c        = c*n
//	sum_{i=0}^{n-1} i        = n(n-1)/2
//	sum_{i=0}^{n-1} i^2      = n(n-1)(2n-1)/6
func Sum(idx string, n Expr, body Expr) Expr {
	c0, c1, c2, ok := polyInVar(body, idx)
	if !ok {
		// Worst case: n iterations, each costing body at the last index.
		worst := Subst(body, map[string]Expr{idx: Sub(n, One)})
		return Mul(n, worst)
	}
	sum1 := Div(Mul(n, Sub(n, One)), C(2))
	sum2 := Div(Mul(n, Sub(n, One), Sub(Mul(C(2), n), One)), C(6))
	return Add(Mul(c0, n), Mul(c1, sum1), Mul(c2, sum2))
}

// polyInVar decomposes e as c0 + c1*idx + c2*idx^2, where the coefficients
// must not mention idx. Returns ok=false when e is not a polynomial of
// degree <= 2 in idx (e.g. idx under ceil/max/division-by-idx).
func polyInVar(e Expr, idx string) (c0, c1, c2 Expr, ok bool) {
	if isConst(e) {
		return e, Zero, Zero, true
	}
	switch t := e.(type) {
	case Var:
		if string(t) == idx {
			return Zero, One, Zero, true
		}
		return t, Zero, Zero, true
	case *nary:
		if t.op == "+" {
			a0, a1, a2 := Expr(Zero), Expr(Zero), Expr(Zero)
			for _, s := range t.terms {
				b0, b1, b2, sok := polyInVar(s, idx)
				if !sok {
					return nil, nil, nil, false
				}
				a0, a1, a2 = Add(a0, b0), Add(a1, b1), Add(a2, b2)
			}
			return a0, a1, a2, true
		}
		// Product: multiply polynomials pairwise, reject degree > 2.
		a0, a1, a2 := Expr(One), Expr(Zero), Expr(Zero)
		for _, s := range t.terms {
			b0, b1, b2, sok := polyInVar(s, idx)
			if !sok {
				return nil, nil, nil, false
			}
			// (a0 + a1 x + a2 x^2)(b0 + b1 x + b2 x^2)
			d3 := Add(Mul(a1, b2), Mul(a2, b1))
			d4 := Mul(a2, b2)
			if !isZero(d3) || !isZero(d4) {
				return nil, nil, nil, false
			}
			n0 := Mul(a0, b0)
			n1 := Add(Mul(a0, b1), Mul(a1, b0))
			n2 := Add(Mul(a0, b2), Mul(a1, b1), Mul(a2, b0))
			a0, a1, a2 = n0, n1, n2
		}
		return a0, a1, a2, true
	case *div:
		if mentions(t.den, idx) {
			return nil, nil, nil, false
		}
		n0, n1, n2, sok := polyInVar(t.num, idx)
		if !sok {
			return nil, nil, nil, false
		}
		return Div(n0, t.den), Div(n1, t.den), Div(n2, t.den), true
	default:
		if mentions(e, idx) {
			return nil, nil, nil, false
		}
		return e, Zero, Zero, true
	}
}

func isZero(e Expr) bool {
	c, ok := e.(Const)
	return ok && c == 0
}

func mentions(e Expr, name string) bool {
	for _, v := range FreeVars(e) {
		if v == name {
			return true
		}
	}
	return false
}
