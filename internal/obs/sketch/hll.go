package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// HLL is a HyperLogLog cardinality estimator: m = 1<<p registers, each
// remembering the longest run of leading zero bits any key hashed into
// it. The estimate's standard error is ≈ 1.04/√m — about 1.6% at the
// default p=12 (4096 registers, 16 KiB).
//
// Registers update by compare-and-swap maximum, so Add is safe from
// any number of writers. Merging is exact: the register-wise maximum
// of sketches over substreams equals the sketch over the concatenated
// stream, hash for hash — not just within error bounds, identical.
type HLL struct {
	p    uint8
	regs []atomic.Uint32
}

const defaultHLLPrecision = 12

// NewHLL builds an estimator with 1<<p registers (0 means 12, clamped
// to 4..16).
func NewHLL(p int) *HLL {
	if p <= 0 {
		p = defaultHLLPrecision
	}
	if p < 4 {
		p = 4
	}
	if p > 16 {
		p = 16
	}
	return &HLL{p: uint8(p), regs: make([]atomic.Uint32, 1<<p)}
}

// Add folds key into the estimate. Allocation-free; safe for
// concurrent writers.
func (h *HLL) Add(key uint32) {
	x := mix64(uint64(key) ^ hllSeed)
	idx := x >> (64 - h.p)
	w := x << h.p
	var rank uint32
	if w == 0 {
		rank = uint32(64-h.p) + 1
	} else {
		rank = uint32(bits.LeadingZeros64(w)) + 1
	}
	reg := &h.regs[idx]
	for {
		cur := reg.Load()
		if cur >= rank || reg.CompareAndSwap(cur, rank) {
			return
		}
	}
}

// Estimate returns the approximate number of distinct keys added.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for i := range h.regs {
		v := h.regs[i].Load()
		if v == 0 {
			zeros++
		}
		sum += 1 / float64(uint64(1)<<v)
	}
	est := hllAlpha(len(h.regs)) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting on empty registers.
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// Merge folds other into h by register-wise maximum. Precisions must
// match. The merged sketch is exactly the sketch of the union stream.
func (h *HLL) Merge(other *HLL) error {
	if other == nil {
		return nil
	}
	if h.p != other.p {
		return fmt.Errorf("sketch: merging mismatched HLL precision %d vs %d", h.p, other.p)
	}
	for i := range h.regs {
		v := other.regs[i].Load()
		for {
			cur := h.regs[i].Load()
			if cur >= v || h.regs[i].CompareAndSwap(cur, v) {
				break
			}
		}
	}
	return nil
}

// hllAlpha is the standard bias-correction constant for m registers.
func hllAlpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}
