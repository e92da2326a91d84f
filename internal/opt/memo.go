package opt

// pointMemo maps a point of the search to what the formulas evaluate to
// there. It is an open-addressed table with linear probing whose entries
// carry an epoch stamp, so starting a new minimization is one increment
// rather than a sweep, and a pooled search reuses the same arrays: a Go map
// here spent a third of a minimization in makemap, hashing and GC. The table
// doubles when half full, so every distinct point is held and count is the
// number of distinct points seen since reset.
type pointMemo struct {
	n       int // coordinates per point
	epoch   uint32
	count   int
	shift   uint        // 64 - log2(len(entries))
	entries []memoEntry // length a power of two
	keys    []int64     // entry i's point is keys[i*n : (i+1)*n]
}

type memoEntry struct {
	epoch              uint32 // in use when equal to the memo's
	seconds, violation float64
}

const memoInitialSize = 1 << 10

// reset empties the memo for points of n coordinates.
func (m *pointMemo) reset(n int) {
	if m.entries == nil {
		m.entries = make([]memoEntry, memoInitialSize)
		m.shift = 64 - 10
	}
	if need := len(m.entries) * n; cap(m.keys) < need {
		m.keys = make([]int64, need)
	} else {
		m.keys = m.keys[:need]
	}
	m.n, m.count = n, 0
	m.epoch++
	if m.epoch == 0 { // wrapped: stamps of 2^32 resets ago would read as live
		clear(m.entries)
		m.epoch = 1
	}
}

// lookup returns x's entry, claiming a free one (found false, for the caller
// to fill) when x has not been seen. The entry is valid until the next lookup.
func (m *pointMemo) lookup(x []int64) (e *memoEntry, found bool) {
	h := uint64(0)
	for _, v := range x {
		// Points are mostly powers of two: mix the high bits down before the
		// next coordinate is folded in.
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h *= 0x9e3779b97f4a7c15
	mask := len(m.entries) - 1
	for i := int(h >> m.shift); ; i = (i + 1) & mask {
		e = &m.entries[i]
		key := m.keys[i*m.n : (i+1)*m.n]
		if e.epoch != m.epoch {
			if (m.count+1)*2 > len(m.entries) {
				m.grow()
				return m.lookup(x)
			}
			e.epoch = m.epoch
			copy(key, x)
			m.count++
			return e, false
		}
		same := true
		for j, v := range x {
			if key[j] != v {
				same = false
				break
			}
		}
		if same {
			return e, true
		}
	}
}

// grow doubles the table and moves the live entries over.
func (m *pointMemo) grow() {
	old, oldKeys := m.entries, m.keys
	m.entries = make([]memoEntry, 2*len(old))
	m.keys = make([]int64, len(m.entries)*m.n)
	m.shift--
	m.count = 0
	for i := range old {
		if old[i].epoch == m.epoch {
			e, _ := m.lookup(oldKeys[i*m.n : (i+1)*m.n])
			e.seconds, e.violation = old[i].seconds, old[i].violation
		}
	}
}
