package storage

import "ocas/internal/memory"

// Acct is the charging context of one sequential strand of execution: a
// private virtual-clock accumulator, per-device ledger deltas and per-device
// arm/erase cursors. The morsel-driven executor gives every partition task
// its own Acct, so concurrent workers never contend on the simulator — and,
// more importantly, so the charges of a partition are a function of the
// partition alone, not of which worker ran it or how the goroutine scheduler
// interleaved it with its siblings. Adopt folds children into their parent
// at a deterministic point of the parent's own sequence, which makes the
// total per-device ledger (integer event counts) and the virtual clock (a
// fixed-order float sum) identical for every worker count.
//
// Seek and erase detection is *stream-relative*: the cursor remembers the
// last (spill, record) position touched on each device, so "sequential"
// means sequential within a spill regardless of where the allocator placed
// its growth chunks. Device-absolute adjacency would depend on allocation
// order, which is scheduling-dependent under concurrent spill writers.
//
// An Acct belongs to one strand: only the goroutine running that strand
// charges it, so nothing here locks. The Sim's root Acct (Sim.Root) is an
// ordinary strand whose accumulators are the Sim's own — Clock and the
// Device ledgers — which is what lets a sequential caller read them mid-run.
// It belongs to the driver strand: partition tasks charge their private
// accounts, and Adopt, which folds those into their parent, is a charge of
// the adopting strand like any other.
type Acct struct {
	sim *Sim

	clock   *float64 // where the strand's seconds accumulate: &seconds, or the Sim's clock
	seconds float64
	cursors []*devCursor // one per device touched; a hierarchy has a handful

	// Aggregates across all devices, for per-worker reporting and
	// per-operator explain snapshots.
	bytesRead, bytesWrite int64
	readInits, writeInits int64
}

// devCursor is one device's arm position and erase window as seen by one
// accounting strand.
type devCursor struct {
	dev *Device
	led *Ledger // where the strand's deltas go: &own, or the device's ledger
	own Ledger

	stream *Spill // last spill touched (nil = arm at an unknown position)
	pos    int64  // next sequential record index within stream

	eraseStream          *Spill
	eraseStart, eraseEnd int64 // byte offsets within eraseStream
}

// NewAcct returns a fresh accounting context for one worker strand. Fold it
// back with Adopt when the strand completes.
func (s *Sim) NewAcct() *Acct {
	a := &Acct{sim: s}
	a.clock = &a.seconds
	return a
}

// Root returns the simulator's root accounting context, the context of the
// driver strand (and of every sequential caller): its charges land on the
// shared clock and the device ledgers as they are made.
func (s *Sim) Root() *Acct {
	return s.root
}

func (a *Acct) cursor(d *Device) *devCursor {
	for _, c := range a.cursors {
		if c.dev == d {
			return c
		}
	}
	c := &devCursor{dev: d}
	c.led = &c.own
	if a == a.sim.root {
		c.led = &d.Led
	}
	a.cursors = append(a.cursors, c)
	return c
}

// CPU charges n operations of the given per-op cost.
func (a *Acct) CPU(n int64, perOp float64) { a.CPUTimes(1, n, perOp) }

// CPUTimes charges CPU(n, perOp) times over: the same additions to the
// clock, in one call.
func (a *Acct) CPUTimes(times, n int64, perOp float64) {
	if n <= 0 || perOp <= 0 {
		return
	}
	clock, secs := *a.clock, float64(n)*perOp
	for ; times > 0; times-- {
		clock += secs
	}
	*a.clock = clock
}

// Seconds returns the strand's accumulated time (on the root, the shared
// clock).
func (a *Acct) Seconds() float64 { return *a.clock }

// BytesRead and BytesWrite report the strand's transfer totals across all
// devices (the per-worker ledger of the execution report).
func (a *Acct) BytesRead() int64  { return a.bytesRead }
func (a *Acct) BytesWrite() int64 { return a.bytesWrite }

// ReadInits and WriteInits report the strand's transfer-initiation totals
// (seeks/erases) across all devices — the event counts of the paper's
// InitCom term, aggregated for per-operator explain accounting.
func (a *Acct) ReadInits() int64  { return a.readInits }
func (a *Acct) WriteInits() int64 { return a.writeInits }

// applyLed adds a ledger delta to the strand's ledger of c's device.
func (a *Acct) applyLed(c *devCursor, readInits, writeInits, bytesRead, bytesWrite int64) {
	a.bytesRead += bytesRead
	a.bytesWrite += bytesWrite
	a.readInits += readInits
	a.writeInits += writeInits
	c.led.ReadInits += readInits
	c.led.WriteInits += writeInits
	c.led.BytesRead += bytesRead
	c.led.BytesWrite += bytesWrite
}

// chargeReads charges the blocked reads of rows records from record index
// idx of sp, k records a block (the last block takes what is left): per
// block an InitCom (seek) when the arm is not already there plus per-byte
// transfer time, then CPU(the block's records, perRow). A run of blocks is
// the float additions of its blocks one by one, in their order, and the sum
// of their integer deltas — what charging them in as many calls would leave.
func (a *Acct) chargeReads(sp *Spill, idx, k, rows int64, perRow float64) {
	if k <= 0 || rows <= 0 {
		return
	}
	c := a.cursor(sp.dev)
	init, tr := sp.dev.upCosts()
	clock, inits := *a.clock, int64(0)
	for end := idx + rows; idx < end; {
		n := min(k, end-idx)
		secs := float64(n*sp.width) * tr
		if c.stream != sp || c.pos != idx {
			secs += init
			inits++
		}
		idx += n
		c.stream, c.pos = sp, idx
		clock += secs
		if perRow > 0 {
			clock += float64(n) * perRow
		}
	}
	*a.clock = clock
	a.applyLed(c, inits, 0, rows*sp.width, 0)
}

// chargeAppends charges n writes of k records each, appended from record
// index at of sp, each preceded by CPU(the block's bytes, perByte) — the
// move into the buffer being evicted. On HDDs an InitCom (seek) is charged
// when the arm is elsewhere; on flash an erase is charged whenever the write
// leaves the current erase window (the device's MaxSeqW bytes), mirroring
// the paper's reading of InitCom on flash. Like chargeReads, a run of writes
// is its writes' additions in their order.
func (a *Acct) chargeAppends(sp *Spill, at, k, n int64, perByte float64) {
	if k <= 0 || n <= 0 {
		return
	}
	d := sp.dev
	c := a.cursor(d)
	init, tr := d.downCosts()
	flash := d.Node.Kind == memory.Flash
	bytes := k * sp.width
	clock, inits := *a.clock, int64(0)
	for i := int64(0); i < n; i++ {
		if perByte > 0 {
			clock += float64(bytes) * perByte
		}
		secs := float64(bytes) * tr
		if flash {
			pos := at * sp.width
			for b := pos; b < pos+bytes; {
				if c.eraseStream == sp && b >= c.eraseStart && b < c.eraseEnd {
					b = c.eraseEnd
					continue
				}
				blk := d.Node.MaxSeqW
				if blk <= 0 {
					blk = 256 << 10
				}
				secs += init
				inits++
				c.eraseStream = sp
				c.eraseStart = b
				c.eraseEnd = b + blk
				b = c.eraseEnd
			}
		} else if c.stream != sp || c.pos != at {
			secs += init
			inits++
		}
		at += k
		c.stream, c.pos = sp, at
		clock += secs
	}
	*a.clock = clock
	a.applyLed(c, 0, inits, 0, n*bytes)
}

// Adopt folds completed child strands into this Acct, in argument order:
// their seconds extend this strand's clock and their ledger deltas its
// ledgers. Call it at a deterministic point of the adopting strand (the
// executor merges partition accounts in partition order at phase barriers),
// so the float summation order — and hence the final clock — is independent
// of goroutine scheduling. The children's arm cursors are deliberately not
// adopted: after a parallel phase the arm position is unknown, so the
// parent's next access on a shared device charges a seek.
func (a *Acct) Adopt(kids ...*Acct) {
	for _, k := range kids {
		if k == nil || k == a {
			continue
		}
		*a.clock += k.seconds
		for _, kc := range k.cursors {
			a.applyLed(a.cursor(kc.dev), kc.own.ReadInits, kc.own.WriteInits, kc.own.BytesRead, kc.own.BytesWrite)
		}
		k.seconds = 0
		k.cursors = nil
	}
}
