package sweep

import "sync"

// Tail returns the closed-form threshold T: Curve answers every window
// τ ≥ T from the histograms and walks the trace only for the others.
func (s *WS) Tail() int { return s.tail }

// WSBlock is the grid pass's time block, in references.
const WSBlock = wsBlock

// Pass is one grid traversal: its sorted windows and the slot count of
// its position ring.
type Pass struct {
	Grid []int
	Ring int
}

// RecordPasses logs every grid traversal from now until stop is called;
// passes returns the log so far. Traversals may run concurrently.
func RecordPasses() (passes func() []Pass, stop func()) {
	var mu sync.Mutex
	var log []Pass
	gridPass = func(grid []int, ring int) {
		mu.Lock()
		defer mu.Unlock()
		log = append(log, Pass{Grid: append([]int(nil), grid...), Ring: ring})
	}
	passes = func() []Pass {
		mu.Lock()
		defer mu.Unlock()
		return append([]Pass(nil), log...)
	}
	return passes, func() { gridPass = nil }
}
