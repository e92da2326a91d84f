package catalog

import (
	"fmt"
	"slices"
	"syscall"
	"unsafe"
)

// imageBudget bounds the bytes of the current images no run holds: past it
// the least recently bound go first, and an image larger than the budget is
// unmapped as soon as its last run lets go. Tests shrink it.
var imageBudget int64 = 256 << 20

// image is one table version's rows, copied once into an anonymous private
// mapping made read-only: off the Go heap, it neither feeds the GC nor
// raises its heap goal. It is current while c.images holds it; a mutation,
// Drop, Close or the budget retire it, and it is unmapped once retired and
// no run holds it. Keyed by the map entry, not TableMeta.Version (which a
// recreated table restarts at 1), it never serves a dropped table's rows.
type image struct {
	name   string
	region []byte        // nil for an empty table
	cols   [][]int32     // views into region capped at their length; nil once unmapped
	ready  chan struct{} // closed once the load ended
	err    error         // the load's failure
	refs   int           // runs holding the image, the loading one included
	used   int64         // c.tick at the last bind
}

// Bind returns read-only column views of the named table's current version
// and the release to run once nothing reads them any more. The first bind
// of a version loads its image through a Handle (loaded says this call
// did); concurrent binds wait for that load, and later ones share the image
// until it is retired. A store into a view faults and an append to one
// reallocates. A failed load is the returned error and caches nothing.
func (c *Catalog) Bind(name string) (cols [][]int32, release func(), loaded bool, err error) {
	c.mu.Lock()
	im := c.images[name]
	if loaded = im == nil; loaded {
		im = &image{name: name, ready: make(chan struct{})}
		c.images[name] = im
	}
	im.refs++
	c.tick++
	im.used = c.tick
	c.mu.Unlock()
	release = func() { c.release(im) }
	if loaded {
		// A mutation before OpenTable takes its snapshot retires im, so
		// an image that stays current holds the current version.
		err := im.load(c)
		c.mu.Lock()
		if im.err = err; err != nil {
			c.retireLocked(im)
		} else {
			c.imageLoads++
			c.mapped++
			c.mappedBytes += int64(len(im.region))
		}
		close(im.ready)
		c.mu.Unlock()
	}
	<-im.ready
	if im.err != nil {
		release()
		return nil, nil, false, im.err
	}
	return slices.Clone(im.cols), release, loaded, nil
}

// load copies the table's current rows into a fresh mapping and makes it
// read-only.
func (im *image) load(c *Catalog) error {
	h, err := c.OpenTable(im.name)
	if err != nil {
		return err
	}
	defer h.Close()
	n, cols := int(h.rows), make([][]int32, h.arity)
	if n > 0 {
		region, err := syscall.Mmap(-1, 0, n*h.arity*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("catalog: map the image of %q: %w", im.name, err)
		}
		for c := range cols {
			cols[c] = unsafe.Slice((*int32)(unsafe.Pointer(&region[c*n*4])), n)
		}
		if err = h.ReadCols(cols, 0, h.rows); err == nil {
			err = syscall.Mprotect(region, syscall.PROT_READ)
		}
		if err != nil {
			syscall.Munmap(region)
			return err
		}
		im.region = region
	}
	im.cols = cols
	return nil
}

// release lets go of one bind's hold on im. When it was the last, a retired
// or oversized image is unmapped, and the least recently bound images no
// run holds are retired until the rest fit the budget.
func (c *Catalog) release(im *image) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if im.refs--; im.refs > 0 {
		return
	}
	if c.images[im.name] != im || int64(len(im.region)) > imageBudget {
		c.retireLocked(im)
		return
	}
	for {
		var idle int64
		var lru *image
		for _, o := range c.images {
			if o.refs == 0 {
				idle += int64(len(o.region))
				if lru == nil || o.used < lru.used {
					lru = o
				}
			}
		}
		if idle <= imageBudget {
			return
		}
		c.retireLocked(lru)
	}
}

// retireLocked makes im, when it is current, stale, and unmaps it once no
// run holds it. A nil im, a second unmap or a failed load's does nothing.
func (c *Catalog) retireLocked(im *image) {
	if im != nil && c.images[im.name] == im {
		delete(c.images, im.name)
	}
	if im == nil || im.refs > 0 || im.cols == nil {
		return
	}
	c.mapped--
	c.mappedBytes -= int64(len(im.region))
	syscall.Munmap(im.region) // an empty table's nil region is not a mapping
	im.region, im.cols = nil, nil
}
