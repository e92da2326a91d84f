package rules

import (
	"testing"

	"ocas/internal/ocal"
)

// OneShotAlphaKey exposes the reference alpha key (one renaming, one
// printing) to the external test package.
var OneShotAlphaKey = oneShotAlphaKey

// KeyOracle exposes the key exactness check (see keyOracle) to the external
// test package.
type KeyOracle struct{ o *keyOracle }

func NewKeyOracle() KeyOracle { return KeyOracle{newKeyOracle()} }

func (k KeyOracle) Check(t testing.TB, e ocal.Expr) { t.Helper(); k.o.check(t, e) }

// Seen is the number of programs checked; Classes the number of distinct keys.
func (k KeyOracle) Seen() int    { return k.o.seen }
func (k KeyOracle) Classes() int { return len(k.o.byKey) }
