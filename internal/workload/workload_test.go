package workload

import (
	"testing"
	"testing/quick"
	"time"
)

func TestUniformPairsShapeAndDeterminism(t *testing.T) {
	a := UniformPairs(100, 10, 7)
	b := UniformPairs(100, 10, 7)
	if len(a) != 200 {
		t.Fatalf("len %d want 200", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic")
		}
	}
	for i := 0; i < len(a); i += 2 {
		if a[i] < 0 || a[i] >= 10 {
			t.Fatalf("key %d out of range", a[i])
		}
	}
	c := UniformPairs(100, 10, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestSortedIntsSorted(t *testing.T) {
	f := func(nn uint8, dup uint8, seed int64) bool {
		n := int64(nn)
		vals := SortedInts(n, int64(dup%8)+1, seed)
		if int64(len(vals)) != n {
			return false
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortedUniqueIntsStrictlyIncreasing(t *testing.T) {
	vals := SortedUniqueInts(1000, 3)
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("not strictly increasing at %d", i)
		}
	}
}

func TestValueMultShape(t *testing.T) {
	vm := ValueMult(500, 4)
	if len(vm) != 1000 {
		t.Fatalf("len %d", len(vm))
	}
	for i := 0; i < len(vm); i += 2 {
		if i > 0 && vm[i] <= vm[i-2] {
			t.Fatal("values must be strictly increasing")
		}
		if vm[i+1] < 1 || vm[i+1] > 10 {
			t.Fatalf("multiplicity %d out of range", vm[i+1])
		}
	}
}

func TestEdgeCases(t *testing.T) {
	if len(Ints(0, 10, 1)) != 0 {
		t.Error("n=0 should be empty")
	}
	if len(UniformPairs(1, 0, 1)) != 2 {
		t.Error("keyRange 0 must clamp to 1")
	}
	if len(Column(5, 1)) != 5 {
		t.Error("column length")
	}
	if got := SortedInts(10, 0, 1); len(got) != 10 {
		t.Error("dupFactor 0 must clamp")
	}
}

// TestGeneratorsLinear: four times the rows cost about four times the wall
// time — a counting sort, not a comparison sort, and no quadratic slip (16x).
// Both sizes keep their scattered writes (at most 0.4 MiB) inside a private
// cache: at 2^16 against 2^18 rows the larger SortedPairs spilled into a cache
// shared with other containers and read 6.0–7.9x, and past the caches
// altogether (2^20 against 2^22) the memory system alone makes it 5–10x.
func TestGeneratorsLinear(t *testing.T) {
	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	for name, gen := range map[string]func(n int64){
		"SortedInts":  func(n int64) { SortedInts(n, 4, 5) },
		"SortedPairs": func(n int64) { SortedPairs(n, 5) },
	} {
		// Best of 15, the two sizes taking turns so that a busy stretch of the
		// host slows both.
		small, large := time.Duration(1<<62), time.Duration(1<<62)
		for try := 0; try < 15; try++ {
			small = min(small, timed(func() { gen(1 << 13) }))
			large = min(large, timed(func() { gen(1 << 15) }))
		}
		if large > 6*small {
			t.Errorf("%s: 2^15 rows took %v, 2^13 rows %v: more than 6x for 4x the rows", name, large, small)
		}
	}
}

// TestGeneratorsAllocs: a generator allocates its columns, its counters and
// its random source, not once per row or per doubling.
func TestGeneratorsAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(10, func() { SortedInts(1<<12, 4, 5) }); got > 4 {
		t.Errorf("SortedInts: %v allocations per run, want at most 4", got)
	}
	if got := testing.AllocsPerRun(10, func() { SortedPairs(1<<12, 5) }); got > 5 {
		t.Errorf("SortedPairs: %v allocations per run, want at most 5", got)
	}
}
