package sweep

import (
	"math/bits"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// LRUCurve holds the full LRU allocation sweep m = 1..V, computed from a
// single pass over the reference stream with Mattson's stack algorithm:
// the LRU stack distance of each reference is the number of distinct
// pages touched since the page's previous reference (lruStack). The
// results are exactly what replaying the stream under policy.NewLRU(m)
// for every m would produce — page faults, MEM and space-time cost under
// the fixed-partition charging rule — at a fraction of the cost.
type LRUCurve struct {
	V    int
	Refs int
	// faults[m] is PF under allocation m, for m in [1, V]; faults[0] is
	// unused. Allocations above V behave exactly like V.
	faults []int
}

// NewLRU analyzes a reference stream in one traversal.
func NewLRU(src trace.Source) (*LRUCurve, error) {
	var s lruStack
	hist, err := s.distances(src)
	if err != nil {
		return nil, err
	}
	return lruCurve(src.Meta().Refs, s.v, hist), nil
}

// lruCurve builds the curve of a stream of refs references over v
// distinct pages from its stack-distance histogram: Faults(m) is the v
// first touches plus the references at distance above m.
func lruCurve(refs, v int, hist []int) *LRUCurve {
	for len(hist) < v+2 {
		// A source that under-reported Distinct in Meta; the clamped
		// histogram tail stays exact because distances never exceed the
		// true V.
		hist = append(hist, 0)
	}
	s := &LRUCurve{V: v, Refs: refs, faults: make([]int, v+1)}
	far := 0 // references at distance above m
	for _, n := range hist[v+1:] {
		far += n
	}
	for m := v; m >= 1; m-- {
		s.faults[m] = v + far
		far += hist[m]
	}
	return s
}

// lruScanWords is the most bitset words lruStack.walk counts one by one
// for a reference; past that the word tree answers.
const lruScanWords = 8

// lruStack is the LRU stack of a one-pass stack-distance analysis. Every
// reference takes the next position, each page remembers the position
// of its last reference, and the stack holds the live positions, one
// per page touched so far: a bitset over positions 1..n-1, and a Fenwick
// tree over the bitset's words counting each word's live positions.
//
// A reference's distance is one plus the live positions after its
// page's previous one, prev, and none is at or past the current one. So
// they are the bits above prev in its word plus every bit of the words
// after it. Up to lruScanWords of those words are counted one by one;
// past that, the tree gives the live positions up to prev's word, and
// the rest is v minus them — so no reference costs more than
// O(log(n/64)). The tree changes only when a page's position moves to
// another word, on a first touch, and when compact rebuilds it.
//
// Positions are renumbered 1..V whenever they run out (compact), so
// memory stays O(V) for arbitrarily long streams: a multi-GB CDT3 file
// sweeps in the footprint of its page universe.
type lruStack struct {
	live []uint64 // bit p of the bitset: position p is live
	tree []int    // Fenwick tree over word live counts; word w at index w+1
	cur  int      // the next position
	v    int      // live positions: distinct pages so far
	rank []int    // compact's work buffer: live positions before each word

	compactions int // renumberings so far
	// scanned, when set, is told how many words walk counted one by one
	// for each re-reference (0 when the tree answered). Tests set it.
	scanned func(words int)
}

// distances walks a stream once and returns its LRU stack-distance
// histogram, hist[d] counting the references at distance d (a first
// touch has none; the last entry also holds any distance past it). The
// stack is then left holding the stream's distinct-page count in v.
func (s *lruStack) distances(src trace.Source) ([]int, error) {
	meta := src.Meta()
	// Pages are addressed directly (pageSpan bounds them), so the
	// per-page last-position bookkeeping is array indexing.
	span, _ := pageSpan(meta)
	lastPos := make([]int, span)
	hist := make([]int, meta.Distinct+2)
	// Room for ~4 positions per distinct page between compactions, so
	// compaction cost amortizes to O(1) per reference.
	n := 1024
	for n < 4*(meta.Distinct+2) {
		n *= 2
	}
	s.resize(n)
	s.cur = 1 // position 0 marks a page never referenced
	err := walkRefs(src, func(pages []mem.Page) { s.walk(pages, lastPos, hist) })
	return hist, err
}

// resize sizes the stack for positions 1..n-1; it holds none live.
func (s *lruStack) resize(n int) {
	s.live = make([]uint64, n/64)
	s.tree = make([]int, n/64+1)
	s.rank = make([]int, n/64)
}

// walk adds the stack distance of every reference in pages to hist.
func (s *lruStack) walk(pages []mem.Page, lastPos, hist []int) {
	live, tree := s.live, s.tree
	cur, v := s.cur, s.v
	end := len(live) * 64
	last := len(hist) - 1
	scanned := s.scanned
	for _, pg := range pages {
		p := int(pg)
		wc := cur >> 6
		if prev := lastPos[p]; prev != 0 {
			wp := prev >> 6
			d := 1 + bits.OnesCount64(live[wp]>>(prev&63)>>1)
			words := wc - wp
			if words <= lruScanWords {
				for _, x := range live[wp+1 : wc+1] {
					d += bits.OnesCount64(x)
				}
			} else {
				d += v
				for i := wp + 1; i > 0; i -= i & -i {
					d -= tree[i]
				}
				words = 0
			}
			if scanned != nil {
				scanned(words)
			}
			hist[min(d, last)]++
			live[wp] &^= 1 << (prev & 63)
			if wp != wc {
				moveCount(tree, wp+1, wc+1)
			}
		} else {
			v++
			for i := wc + 1; i < len(tree); i += i & -i {
				tree[i]++
			}
		}
		live[wc] |= 1 << (cur & 63)
		lastPos[p] = cur
		if cur++; cur == end {
			s.v = v
			s.compact(lastPos)
			live, tree, cur, end = s.live, s.tree, s.cur, len(s.live)*64
		}
	}
	s.cur, s.v = cur, v
}

// moveCount moves one live position from word i-1 to word j-1, i < j:
// -1 on i's tree path and +1 on j's, stopping where the paths meet,
// since from there on the two cancel.
func moveCount(tree []int, i, j int) {
	for i != j && min(i, j) < len(tree) {
		if i < j {
			tree[i]--
			i += i & -i
		} else {
			tree[j]++
			j += j & -j
		}
	}
}

// compact renumbers the live positions 1..v in order, growing the stack
// if they would fill more than a quarter of it, and rebuilds the bitset
// and the tree. Each page's new position is its old position's rank
// among the live ones.
func (s *lruStack) compact(lastPos []int) {
	s.compactions++
	k := 0
	for w, x := range s.live {
		s.rank[w] = k
		k += bits.OnesCount64(x)
	}
	for pg, pos := range lastPos {
		if pos != 0 {
			w := pos >> 6
			lastPos[pg] = 1 + s.rank[w] + bits.OnesCount64(s.live[w]&(1<<(pos&63)-1))
		}
	}
	if n := len(s.live) * 64; n < 4*(s.v+2) {
		for n < 4*(s.v+2) {
			n *= 2
		}
		s.resize(n)
	}
	clear(s.live)
	clear(s.tree)
	for w := range s.live {
		lo, hi := max(64*w, 1), min(64*w+64, s.v+1)
		if lo >= hi {
			break
		}
		s.live[w] = ^uint64(0) >> (64 - (hi - lo)) << (lo - 64*w)
	}
	for w, x := range s.live {
		i := w + 1
		s.tree[i] += bits.OnesCount64(x)
		if j := i + i&-i; j < len(s.tree) {
			s.tree[j] += s.tree[i]
		}
	}
	s.cur = s.v + 1
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
