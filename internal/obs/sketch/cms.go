package sketch

import (
	"fmt"
	"sync/atomic"
)

// CMS is a count-min sketch with conservative update: a depth×width
// grid of counters answering "about how many times has this key been
// seen" in O(depth) atomic operations and no allocations. Estimates
// are upper bounds — Estimate(k) ≥ true(k) always — and with width w
// the overshoot stays below e·N/w (N = stream length) with
// overwhelming probability. Conservative update (raise only the cells
// that need raising, to the new minimum) cuts the realized error well
// below that bound on skewed streams, which query traffic is.
//
// A CMS is single-writer: one goroutine calls Add. Cells are atomic
// words so concurrent readers (Estimate, Merge sources, exposition)
// see monotonically fresh values without torn reads.
type CMS struct {
	depth int
	mask  uint32
	cells []atomic.Uint32 // row-major, depth rows of mask+1 cells
}

const (
	defaultCMSDepth     = 4
	maxCMSDepth         = 8
	defaultCMSWidthBits = 12
	maxCMSWidthBits     = 24
)

// NewCMS builds a sketch with the given depth (rows; 0 means 4, max 8)
// and width of 1<<widthBits cells per row (0 means 12, clamped to
// 4..24). The default 4×4096 grid costs 64 KiB and bounds error by
// e·N/4096 ≈ N/1500 per key.
func NewCMS(depth, widthBits int) *CMS {
	if depth <= 0 {
		depth = defaultCMSDepth
	}
	if depth > maxCMSDepth {
		depth = maxCMSDepth
	}
	if widthBits <= 0 {
		widthBits = defaultCMSWidthBits
	}
	if widthBits < 4 {
		widthBits = 4
	}
	if widthBits > maxCMSWidthBits {
		widthBits = maxCMSWidthBits
	}
	w := 1 << widthBits
	return &CMS{
		depth: depth,
		mask:  uint32(w - 1),
		cells: make([]atomic.Uint32, depth*w),
	}
}

// slot returns the cell for key in row r.
func (c *CMS) slot(r int, key uint32) *atomic.Uint32 {
	h := mix64(uint64(key) ^ (cmsSeed + uint64(r)*0x8000000080000001))
	return &c.cells[r*int(c.mask+1)+int(uint32(h)&c.mask)]
}

// Add records delta occurrences of key (conservative update) and
// returns the key's new estimate. It never allocates.
func (c *CMS) Add(key uint32, delta uint32) uint32 {
	est := ^uint32(0)
	for r := 0; r < c.depth; r++ {
		if v := c.slot(r, key).Load(); v < est {
			est = v
		}
	}
	nv := est + delta
	for r := 0; r < c.depth; r++ {
		if s := c.slot(r, key); s.Load() < nv {
			s.Store(nv)
		}
	}
	return nv
}

// Inc is Add(key, 1).
func (c *CMS) Inc(key uint32) uint32 { return c.Add(key, 1) }

// Estimate returns an upper bound on how many times key was added.
func (c *CMS) Estimate(key uint32) uint32 {
	est := ^uint32(0)
	for r := 0; r < c.depth; r++ {
		if v := c.slot(r, key).Load(); v < est {
			est = v
		}
	}
	return est
}

// Width returns the cells per row.
func (c *CMS) Width() int { return int(c.mask) + 1 }

// Merge folds other into c cell-wise. Both sketches must have the same
// depth and width (they hash identically — seeds are fixed). Merging
// preserves the upper-bound property, and the merged error bound is
// e·(N₁+N₂)/width — the same as one sketch over the concatenated
// stream. The receiver must not be receiving Adds concurrently; the
// source may be live (a racing update is simply missed or picked up).
func (c *CMS) Merge(other *CMS) error {
	if other == nil {
		return nil
	}
	if c.depth != other.depth || c.mask != other.mask {
		return fmt.Errorf("sketch: merging mismatched CMS dimensions %dx%d vs %dx%d",
			c.depth, c.Width(), other.depth, other.Width())
	}
	for i := range c.cells {
		if v := other.cells[i].Load(); v != 0 {
			c.cells[i].Add(v)
		}
	}
	return nil
}
