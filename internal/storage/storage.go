// Package storage is a discrete-event simulator for the storage devices of
// the paper's experimental platform (Section 7.1, Figure 7). It substitutes
// for the real Western Digital HDD / Apple SSD / CPU-cache testbed: devices
// charge the same two cost events the paper models — InitCom (seek on disks,
// erase on flash) and UnitTr (per-byte transfer) — against a virtual clock,
// with seeks triggered by actual access-pattern discontinuities and flash
// erasure by actual write patterns. Synthesized programs execute against
// these devices on real data, so measured times include the data-dependent
// effects the paper's evaluation discusses.
//
// The substrate is concurrency-safe for the morsel-driven executor: all
// charging flows through per-strand Acct contexts (see acct.go), device
// space allocation is mutex-guarded, and the shared clock and ledgers are
// only touched by the strand that owns the root Acct (its own charges, and
// the children it adopts at deterministic merge points).
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ocas/internal/memory"
)

// Clock is the virtual clock shared by all devices of one simulation. Only
// the root Acct's strand advances it (its own charges and what it adopts);
// Seconds is for that strand, or for anyone once the run is over.
type Clock struct {
	seconds float64
}

// Seconds returns the elapsed virtual time.
func (c *Clock) Seconds() float64 { return c.seconds }

// Ledger counts the events charged on one device for reporting.
type Ledger struct {
	ReadInits  int64
	WriteInits int64
	BytesRead  int64
	BytesWrite int64
}

// Device simulates one leaf storage node. Space claims are mutex-guarded
// so concurrent spill writers can claim growth chunks; the ledger is the
// root strand's, which holds every adopted strand's deltas (see Acct).
type Device struct {
	Node *memory.Node
	sim  *Sim
	Led  Ledger

	mu      sync.Mutex
	claimed int64 // bytes held by live spills
}

// Sim holds the devices of a hierarchy plus the shared clock and optional
// CPU cost model.
type Sim struct {
	H       *memory.Hierarchy
	Clock   Clock
	Devices map[string]*Device
	Cache   *CacheModel // non-nil when the hierarchy has a cache level

	root *Acct // the driver strand's account: it charges Clock and the device ledgers

	// CPU cost model (seconds per operation); zero values disable CPU
	// charging, mirroring the estimator's "we currently neglect the actual
	// computation cost".
	CmpSeconds  float64 // one comparison of two tuples
	HashSeconds float64 // one hash computation
	MoveSeconds float64 // moving one byte within RAM
}

// DefaultCPU configures a CPU model resembling a ~1 GHz effective tuple
// processing rate; the paper's accuracy discussion (Section 7.3) relies on
// CPU costs existing in reality but not in the estimates.
func (s *Sim) DefaultCPU() {
	s.CmpSeconds = 4e-9
	s.HashSeconds = 12e-9
	s.MoveSeconds = 0.3e-9
}

// NewSim builds a simulator for the hierarchy: every non-root node with
// device semantics gets a Device; a cache node gets the cache model.
func NewSim(h *memory.Hierarchy) *Sim {
	s := &Sim{H: h, Devices: map[string]*Device{}}
	s.root = &Acct{sim: s, clock: &s.Clock.seconds}
	for _, name := range h.Names() {
		n := h.Node(name)
		switch {
		case Simulates(n.Kind):
			s.Devices[name] = &Device{Node: n, sim: s}
		case n.Kind == memory.Cache:
			s.Cache = NewCacheModel(n.Size, n.PageSize)
		}
	}
	return s
}

// Simulates reports whether NewSim makes a device of a node of kind k:
// an execution can place data only there.
func Simulates(k memory.Kind) bool { return k == memory.HDD || k == memory.Flash }

// Device returns the named device or an error.
func (s *Sim) Device(name string) (*Device, error) {
	d, ok := s.Devices[name]
	if !ok {
		return nil, fmt.Errorf("storage: %q is not a simulated device", name)
	}
	return d, nil
}

// CPU charges n operations of the given per-op cost on the root strand.
func (s *Sim) CPU(n int64, perOp float64) { s.root.CPU(n, perOp) }

// AllocatedBytes reports the device's live allocation (claimed and not yet
// freed) — the quantity the spill-leak tests watch.
func (d *Device) AllocatedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.claimed
}

// claim takes bytes of the device's space for a spill, or fails when the
// device cannot hold them.
func (d *Device) claim(bytes int64) error {
	if bytes <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.claimed+bytes > d.Node.Size {
		return fmt.Errorf("storage: device %s full (%d + %d > %d)",
			d.Node.Name, d.claimed, bytes, d.Node.Size)
	}
	d.claimed += bytes
	return nil
}

// free returns bytes to the device (Spill.Free).
func (d *Device) free(bytes int64) {
	d.mu.Lock()
	d.claimed -= bytes
	d.mu.Unlock()
}

// upCosts returns the edge costs for reading from the device toward its
// parent; downCosts for writing toward the device.
func (d *Device) upCosts() (init, tr float64) {
	return d.Node.InitComUp, d.Node.UnitTrUp
}

func (d *Device) downCosts() (init, tr float64) {
	return d.Node.InitComDown, d.Node.UnitTrDown
}

// CacheModel is an analytic CPU cache model: the cache experiment of
// Section 7.2 compares data-cache misses between the tiled and untiled BNL
// join, so the model exposes miss accounting that the join operator fills in
// from its access pattern (per-access LRU simulation would dominate the
// run time at realistic sizes; the analytic counts match LRU behaviour for
// the streaming patterns involved). Counters are atomic so parallel bucket
// joins can report concurrently; the totals are order-independent.
type CacheModel struct {
	Size     int64
	LineSize int64
	hits     atomic.Int64
	misses   atomic.Int64
}

// NewCacheModel returns a cache of the given geometry.
func NewCacheModel(size, line int64) *CacheModel {
	if line <= 0 {
		line = 64
	}
	return &CacheModel{Size: size, LineSize: line}
}

// Hits and Misses report the counters.
func (c *CacheModel) Hits() int64   { return c.hits.Load() }
func (c *CacheModel) Misses() int64 { return c.misses.Load() }

// ScanMisses records a sequential scan of `bytes` repeated `times`: when the
// scanned region fits the cache, only the first pass misses; otherwise every
// pass misses on every line.
func (c *CacheModel) ScanMisses(bytes, times int64) {
	if bytes <= 0 || times <= 0 {
		return
	}
	lines := (bytes + c.LineSize - 1) / c.LineSize
	if bytes <= c.Size {
		c.misses.Add(lines)
		c.hits.Add(lines * (times - 1))
		return
	}
	c.misses.Add(lines * times)
}

// MissRatio returns misses / (hits+misses).
func (c *CacheModel) MissRatio() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(m) / float64(h+m)
}
