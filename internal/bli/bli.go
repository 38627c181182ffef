// Package bli implements the Bounded Locality Interval model of Madison &
// Batson (CACM 1976), the empirical foundation the paper builds on: the
// observation that a program's reference string decomposes into a
// hierarchy of intervals during which a fixed set of pages is
// re-referenced. The paper's central premise is that these runtime
// localities correspond to the source program's loop structures
// ([MaBa76], [Abus81], [Malk82]); this package detects them from traces so
// that the correspondence — compile-time predicted locality sizes versus
// runtime-observed interval sizes — can be checked directly
// (TestCompileTimePredictionsMatchRuntime).
//
// Detection uses the classic LRU-stack formulation: a locality of size s
// exists over a maximal interval during which the set of pages in the top
// s positions of the LRU stack does not change. A reference to the page
// at stack depth d leaves the top-s sets unchanged for all s ≥ d (the set
// is merely reordered) and changes them for every s < d, so interval
// boundaries fall out of a single pass over the trace.
package bli

import (
	"fmt"
	"sort"
	"strings"

	"cdmm/internal/mem"
)

// Interval is one bounded locality interval: the top-Size LRU stack set
// was invariant over [Start, End) (0-based reference indexes).
type Interval struct {
	Size  int
	Start int
	End   int
}

// Duration returns the interval length in references.
func (iv Interval) Duration() int { return iv.End - iv.Start }

// minDuration is the shortest interval Detect reports for a locality of
// size pages: Madison & Batson's "bounded" qualifier requires an
// interval to persist long enough to be meaningful.
func minDuration(size int) int { return 8 * size }

// Detect scans the reference string and returns all bounded locality
// intervals, ordered by start time then size. Every size up to the
// trace's distinct page count is tracked.
func Detect(refs []mem.Page) []Interval {
	var out []Interval

	// LRU stack as a slice (top at index 0); depth lookups via map.
	var stack []mem.Page
	pos := map[mem.Page]int{} // page -> stack index
	// lastChange[s] is the time the top-(s+1) set last changed; it grows
	// with the stack.
	var lastChange []int

	emit := func(size, start, end int) {
		if end-start >= minDuration(size) {
			out = append(out, Interval{Size: size, Start: start, End: end})
		}
	}

	for t, pg := range refs {
		d, seen := pos[pg]
		if !seen {
			d = len(stack)
			stack = append(stack, pg)
			lastChange = append(lastChange, 0)
		}
		// Move to top: stack positions [0, d) shift down one.
		for i := d; i > 0; i-- {
			stack[i] = stack[i-1]
			pos[stack[i]] = i
		}
		stack[0] = pg
		pos[pg] = 0

		// Top-s sets changed for every s < d (s is 1-based size).
		limit := d
		if !seen {
			limit = len(stack) // a brand-new page changes every level
		}
		for s := 1; s <= limit; s++ {
			emit(s, lastChange[s-1], t)
			lastChange[s-1] = t
		}
	}
	// Close intervals still open at trace end.
	n := len(refs)
	for s := 1; s <= len(stack); s++ {
		emit(s, lastChange[s-1], n)
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Size < out[j].Size
	})
	return out
}

// SizeStats aggregates the intervals of one locality size.
type SizeStats struct {
	Size     int
	Count    int
	Coverage int // total references covered by intervals of this size
	MaxDur   int
	MeanDur  float64
}

// Stats groups intervals by size, sorted by descending coverage.
func Stats(intervals []Interval) []SizeStats {
	bySize := map[int]*SizeStats{}
	for _, iv := range intervals {
		s := bySize[iv.Size]
		if s == nil {
			s = &SizeStats{Size: iv.Size}
			bySize[iv.Size] = s
		}
		s.Count++
		s.Coverage += iv.Duration()
		if iv.Duration() > s.MaxDur {
			s.MaxDur = iv.Duration()
		}
	}
	out := make([]SizeStats, 0, len(bySize))
	for _, s := range bySize {
		s.MeanDur = float64(s.Coverage) / float64(s.Count)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Coverage != out[j].Coverage {
			return out[i].Coverage > out[j].Coverage
		}
		return out[i].Size < out[j].Size
	})
	return out
}

// DominantSizes returns the locality sizes whose intervals cover at least
// frac of the trace, sorted ascending — the runtime view of the program's
// locality hierarchy.
func DominantSizes(intervals []Interval, refLen int, frac float64) []int {
	var out []int
	for _, s := range Stats(intervals) {
		if float64(s.Coverage) >= frac*float64(refLen) {
			out = append(out, s.Size)
		}
	}
	sort.Ints(out)
	return out
}

// Render prints the per-size statistics table.
func Render(intervals []Interval, refLen int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %8s %10s %10s %10s %9s\n", "size", "count", "coverage", "cover%", "mean-dur", "max-dur")
	for i, s := range Stats(intervals) {
		if i >= 20 {
			fmt.Fprintf(&b, "... (%d more sizes)\n", len(Stats(intervals))-20)
			break
		}
		fmt.Fprintf(&b, "%6d %8d %10d %9.1f%% %10.0f %9d\n",
			s.Size, s.Count, s.Coverage, 100*float64(s.Coverage)/float64(refLen), s.MeanDur, s.MaxDur)
	}
	return b.String()
}
