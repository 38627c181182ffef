package policy

import (
	"slices"

	"cdmm/internal/mem"
)

// pageIndex assigns small dense slot ids to pages on first touch so the
// policies can keep their per-page state in flat arrays instead of maps.
// Slot assignments are stable for the lifetime of the policy — Reset
// clears per-run state but keeps the page→slot mapping, so replaying the
// same trace reuses every allocation.
//
// The dense table is sized by the pages it covers: a hint allocates
// exactly the hinted span (a synthesized kernel tenant's table holds a
// few dozen entries), and unhinted first touches grow it by doubling.
//
// Sparsity guard: the dense lookup table only grows while the page number
// stays within pageIndexFactor× the number of assigned slots (or below
// pageIndexMinDense, whichever is larger). Pages beyond that window —
// e.g. chaos wild-pointer injections near 2^30 — take a compact map path
// instead, so one wild reference can never balloon the table to a
// MaxPage-sized array.
type pageIndex struct {
	dense  []int32            // page -> slot+1; 0 means unassigned
	sparse map[mem.Page]int32 // out-of-window pages -> slot
	pages  []mem.Page         // slot -> page
}

const (
	// pageIndexMinDense is the page bound below which the sparsity guard
	// always lets the dense table grow (4 KiB of int32s at most); it is a
	// threshold, never an allocation size.
	pageIndexMinDense = 1 << 10
	// pageIndexFactor bounds how far the dense table may exceed the
	// number of assigned slots.
	pageIndexFactor = 8
)

// size returns the number of assigned slots.
func (x *pageIndex) size() int { return len(x.pages) }

// pageOf returns the page assigned to slot s.
func (x *pageIndex) pageOf(s int32) mem.Page { return x.pages[s] }

// lookup returns the slot of p, or -1 when p has never been indexed.
// A page covered by the dense table but unassigned there may still hold
// a sparse slot: it was first touched while outside the sparsity window,
// before growth extended the table past it. growDense migrates such
// entries, but the fallthrough keeps lookup correct on its own.
func (x *pageIndex) lookup(p mem.Page) int32 {
	if p >= 0 && int(p) < len(x.dense) {
		if v := x.dense[p]; v != 0 {
			return v - 1
		}
	}
	if s, ok := x.sparse[p]; ok {
		return s
	}
	return -1
}

// slot returns the slot of p, assigning the next free one on first use.
func (x *pageIndex) slot(p mem.Page) int32 {
	if s := x.lookup(p); s >= 0 {
		return s
	}
	s := int32(len(x.pages))
	x.pages = append(x.pages, p)
	if p >= 0 && (int(p) < len(x.dense) || int(p) < x.denseCap()) {
		if int(p) >= len(x.dense) {
			// Double, to amortize sequential first touches.
			x.growDense(max(2*len(x.dense), int(p)+1))
		}
		x.dense[p] = s + 1
	} else {
		if x.sparse == nil {
			x.sparse = make(map[mem.Page]int32)
		}
		x.sparse[p] = s
	}
	return s
}

// denseCap is the largest dense table the current slot population
// justifies under the sparsity guard.
func (x *pageIndex) denseCap() int {
	c := pageIndexFactor * (len(x.pages) + 1)
	if c < pageIndexMinDense {
		c = pageIndexMinDense
	}
	return c
}

// growDense widens the dense table to exactly n entries (n ≥ its
// length).
func (x *pageIndex) growDense(n int) {
	nd := make([]int32, n)
	copy(nd, x.dense)
	x.dense = nd
	// Migrate sparse entries the wider table now covers, so pages that
	// arrived ahead of the growth keep taking the array path afterwards.
	for p, s := range x.sparse {
		if p >= 0 && int(p) < len(x.dense) {
			x.dense[p] = s + 1
			delete(x.sparse, p)
		}
	}
}

// hint sizes the dense table for a trace whose largest page and
// distinct-page count are known, so the first replay assigns slots
// without growth reallocations: it allocates exactly the pages up to
// maxPage. It returns the number of slots the index can hold once the
// trace has run, for the caller to pre-size its per-slot state, or 0
// when it ignores the hint. Hints outside the sparsity guard are
// ignored — such pages take the map path when they arrive.
func (x *pageIndex) hint(maxPage mem.Page, distinct int) int {
	if maxPage < 0 || distinct <= 0 {
		return 0
	}
	need := int(maxPage) + 1
	if need > max(pageIndexFactor*distinct, pageIndexMinDense) {
		return 0
	}
	if need > len(x.dense) {
		x.growDense(need)
	}
	// The trace can add a slot only for a page in [0, maxPage] the index
	// has not assigned: a recycled index keeps its earlier traces' slots.
	free := need
	for _, s := range x.dense[:need] {
		if s != 0 {
			free--
		}
	}
	n := len(x.pages) + min(distinct, free)
	x.pages = slices.Grow(x.pages, n-len(x.pages))
	return n
}
