package sweep

import (
	"sync"

	"cdmm/internal/trace"
)

// Tail returns the closed-form threshold T: Curve answers every window
// τ ≥ T from the histograms and walks the trace only for the others.
func (s *WS) Tail() int { return s.tail }

// WSBlock is the grid pass's time block, in references.
const WSBlock = wsBlock

// LiveBits is the width of the grid scan's live mask: windows up to it
// need no expiry queue.
const LiveBits = liveBits

// Pass is one grid traversal: its sorted windows, the slot count of its
// position ring and how many references entered its expiry queues.
type Pass struct {
	Grid   []int
	Ring   int
	Queued int
}

// RecordPasses logs every grid traversal from now until stop is called;
// passes returns the log so far. Traversals may run concurrently.
func RecordPasses() (passes func() []Pass, stop func()) {
	var mu sync.Mutex
	var log []Pass
	gridPass = func(grid []int, ring, queued int) {
		mu.Lock()
		defer mu.Unlock()
		log = append(log, Pass{Grid: append([]int(nil), grid...), Ring: ring, Queued: queued})
	}
	passes = func() []Pass {
		mu.Lock()
		defer mu.Unlock()
		return append([]Pass(nil), log...)
	}
	return passes, func() { gridPass = nil }
}

// LRUScanWords bounds the bitset words NewLRU counts one by one for one
// reference.
const LRUScanWords = lruScanWords

// LRUPass is one run of NewLRU's stack pass: its distance histogram
// (hist[d] references at distance d) and distinct-page count, how many
// times it renumbered its positions, the most words it counted one by
// one for a reference, and how many references were past their page's
// first.
type LRUPass struct {
	Hist        []int
	V           int
	Compactions int
	MaxScanned  int
	ReRefs      int
}

// LRUDistances runs NewLRU's stack pass over src.
func LRUDistances(src trace.Source) (LRUPass, error) {
	var p LRUPass
	s := lruStack{scanned: func(words int) {
		p.MaxScanned = max(p.MaxScanned, words)
		p.ReRefs++
	}}
	hist, err := s.distances(src)
	p.Hist, p.V, p.Compactions = hist, s.v, s.compactions
	return p, err
}

// FenwickDistances is the oracle pass: the Fenwick tree over reference
// positions that NewLRU used before the word bitset. It returns the
// distance histogram and the distinct-page count.
func FenwickDistances(src trace.Source) ([]int, int, error) { return fenwickDistances(src) }

// LRUCurveOf builds the curve NewLRU builds from a stream's reference
// count, distinct-page count and distance histogram.
func LRUCurveOf(refs, v int, hist []int) *LRUCurve {
	return lruCurve(refs, v, append([]int(nil), hist...))
}
