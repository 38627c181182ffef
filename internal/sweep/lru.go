package sweep

import (
	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// LRUCurve holds the full LRU allocation sweep m = 1..V, computed from a
// single pass over the reference stream with Mattson's stack algorithm:
// the LRU stack distance of each reference is the number of distinct
// pages touched since the page's previous reference, counted by a
// Fenwick tree over reference positions. The results are exactly what
// replaying the stream under policy.NewLRU(m) for every m would produce
// — page faults, MEM and space-time cost under the fixed-partition
// charging rule — at a fraction of the cost.
//
// The tree is periodically compressed: whenever the position counter
// reaches the tree's capacity, the V live positions (one per distinct
// page) are renumbered 1..V and the tree rebuilt, so memory stays O(V)
// for arbitrarily long streams (a multi-GB CDT3 file sweeps in the same
// footprint as its page universe).
type LRUCurve struct {
	V    int
	Refs int
	// faults[m] is PF under allocation m, for m in [1, V]; faults[0] is
	// unused. Allocations above V behave exactly like V.
	faults []int
}

// NewLRU analyzes a reference stream in one traversal.
func NewLRU(src trace.Source) (*LRUCurve, error) {
	meta := src.Meta()
	s := &LRUCurve{Refs: meta.Refs}

	// Pages are addressed directly (pageSpan bounds them), so the
	// per-page last-position bookkeeping is array indexing.
	span, _ := pageSpan(meta)
	lastPos := make([]int, span)
	distHist := make([]int, meta.Distinct+2)

	// Fenwick capacity: room for ~4 live positions per distinct page
	// between compressions, so compression cost amortizes to O(log V)
	// per reference.
	n := 1024
	for n < 4*(meta.Distinct+2) {
		n *= 2
	}
	bit := newFenwick(n)
	cur := 1
	v := 0

	// byPos is compact's work buffer: page+1 at each live position, else 0.
	var byPos []int
	compact := func() {
		// Renumber the live positions 1..v in order and rebuild. They
		// are distinct and below cur, so bucketing the pages by position
		// orders them.
		if len(byPos) < cur {
			byPos = make([]int, cur)
		}
		live := 0
		for pg, pos := range lastPos {
			if pos != 0 {
				byPos[pos] = pg + 1
				live++
			}
		}
		for n < 4*(live+2) {
			n *= 2
			bit = newFenwick(n)
		}
		clear(bit.tree)
		k := 0
		for pos, pg := range byPos[:cur] {
			if pg != 0 {
				byPos[pos] = 0
				k++
				lastPos[pg-1] = k
				bit.add(k, 1)
			}
		}
		cur = k + 1
	}

	err := walkRefs(src, func(pages []mem.Page) {
		for _, pg := range pages {
			p := int(pg)
			if prev := lastPos[p]; prev != 0 {
				// Distinct pages referenced strictly after prev: set
				// bits in (prev, cur).
				d := bit.sum(cur-1) - bit.sum(prev) + 1
				if d >= len(distHist) {
					d = len(distHist) - 1 // cannot exceed V, defensive
				}
				distHist[d]++
				bit.add(prev, -1)
			} else {
				v++
			}
			bit.add(cur, 1)
			lastPos[p] = cur
			cur++
			if cur > n {
				compact()
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Faults(m) = first touches (V) + #refs with stack distance > m.
	s.V = v
	for len(distHist) < v+2 {
		// A source that under-reported Distinct in Meta; the clamped
		// histogram tail stays exact because distances never exceed the
		// true V.
		distHist = append(distHist, 0)
	}
	s.faults = make([]int, v+1)
	for d := len(distHist) - 2; d >= 1; d-- {
		distHist[d] += distHist[d+1]
	}
	for m := 1; m <= v; m++ {
		s.faults[m] = v + distHist[m+1]
	}
	return s, nil
}

// FromLRUCells rebuilds the curve from per-cell simulation results
// (results[m-1] is the replay at allocation m) — the cell-mode
// constructor, used when the engine is asked to distrust the one-pass
// stack analysis and replay every allocation instead.
func FromLRUCells(results []vmsim.Result) *LRUCurve {
	s := &LRUCurve{V: len(results), faults: make([]int, len(results)+1)}
	if len(results) > 0 {
		s.Refs = results[0].Refs
	}
	for m := 1; m <= len(results); m++ {
		s.faults[m] = results[m-1].Faults
	}
	return s
}

func (s *LRUCurve) clamp(m int) int {
	if m < 1 {
		return 1
	}
	if m > s.V {
		return s.V
	}
	return m
}

// Faults returns PF under allocation m.
func (s *LRUCurve) Faults(m int) int { return s.faults[s.clamp(m)] }

// MEM returns the memory allocated: the partition size itself.
func (s *LRUCurve) MEM(m int) float64 { return float64(s.clamp(m)) }

// ST returns the space-time cost under allocation m: the partition is
// held for the whole virtual time R + FaultService·PF(m).
func (s *LRUCurve) ST(m int) float64 {
	m = s.clamp(m)
	return float64(m) * (float64(s.Refs) + float64(policy.FaultService)*float64(s.faults[m]))
}

// Result converts one sweep point into the common Result form.
func (s *LRUCurve) Result(m int) vmsim.Result {
	m = s.clamp(m)
	pf := s.faults[m]
	vt := int64(s.Refs) + int64(pf)*policy.FaultService
	return vmsim.ResultOf(policy.NewLRU(m), s.Refs, &policy.BlockResult{
		Faults:      pf,
		MaxResident: m,
		VTime:       vt,
		MemSum:      int64(m) * int64(s.Refs),
		SpaceTime:   int64(m) * vt,
	})
}

// MinST returns the allocation minimizing space-time cost and that cost.
func (s *LRUCurve) MinST() (int, float64) {
	bestM, best := 1, s.ST(1)
	for m := 2; m <= s.V; m++ {
		if st := s.ST(m); st < best {
			bestM, best = m, st
		}
	}
	return bestM, best
}

// MinAllocationForFaults returns the smallest allocation whose fault count
// is at most target (faults are non-increasing in m for LRU). The second
// result is false if even m = V faults more than target.
func (s *LRUCurve) MinAllocationForFaults(target int) (int, bool) {
	if s.faults[s.V] > target {
		return s.V, false
	}
	lo, hi := 1, s.V
	for lo < hi {
		mid := (lo + hi) / 2
		if s.faults[mid] <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// fenwick is a basic binary indexed tree over 1..n.
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// sum returns the prefix sum over [1, i].
func (f *fenwick) sum(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}
