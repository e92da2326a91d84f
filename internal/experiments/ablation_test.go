package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ocas/internal/core"
	"ocas/internal/rules"
)

// winnerOf is what a synthesis decides: the winner's alpha-normal program,
// its tuned parameters and the bits of its estimated seconds.
func winnerOf(s *core.Synthesis) string {
	return fmt.Sprintf("%s %v %x", rules.AlphaKey(s.Best.Expr), s.Best.Params, math.Float64bits(s.Best.Seconds))
}

// TestEveryRuleIsNeeded is the rule library's ablation over Table 1 at
// shrink 8, synthesis only: dropping any one rule type from every row's rule
// set must move at least one row's winner. A rule that moves none is in no
// winner's derivation and only grows the search spaces. The four apply-block
// variants share a name and are dropped one type at a time.
func TestEveryRuleIsNeeded(t *testing.T) {
	exps := Table1(Config{Shrink: 8, Workers: 2})
	base := make([]string, len(exps))
	for i, e := range exps {
		s, err := Synthesize(e)
		if err != nil {
			t.Fatal(err)
		}
		base[i] = winnerOf(s)
	}
	for _, drop := range rules.AllRules() {
		typ := reflect.TypeOf(drop)
		var moved []string
		for i, e := range exps {
			rls := e.Rules
			if rls == nil {
				rls = rules.AllRules()
			}
			e.Rules = make([]rules.Rule, 0, len(rls))
			for _, r := range rls {
				if reflect.TypeOf(r) != typ {
					e.Rules = append(e.Rules, r)
				}
			}
			s, err := Synthesize(e)
			if err != nil {
				t.Fatal(err)
			}
			if winnerOf(s) != base[i] {
				moved = append(moved, e.Name)
			}
		}
		if len(moved) == 0 {
			t.Errorf("dropping %v (%s) moves no Table 1 winner", typ, drop.Name())
		} else {
			t.Logf("dropping %v moves %v", typ, moved)
		}
	}
}
