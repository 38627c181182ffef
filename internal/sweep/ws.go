package sweep

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// WS answers working-set questions for every window size τ from one
// traversal of the reference stream, without replaying it per τ.
//
// Two single-pass histograms give the closed forms:
//
//   - Faults(τ): a reference faults iff the backward inter-reference
//     interval of its page exceeds τ (first references always fault), so
//     PF(τ) is a suffix count of the interval histogram.
//   - MemSum(τ): a reference at time u with forward re-reference distance
//     d (to the next reference of the same page, or to the end of the
//     stream) keeps its page in W(t,τ) for exactly min(τ, d) time steps,
//     so Σ_t |W(t,τ)| = Σ_u min(τ, d_u), a prefix sum over the forward
//     distance histogram.
//
// Both histograms are kept compact: one entry per distinct interval or
// distance (a few hundred per workload trace, against one per
// reference), searched by binary search.
//
// Each step costs 1 + FaultService time units when it faults and 1
// otherwise, so the space-time integral is
// ST(τ) = MemSum(τ) + FaultService·Σ_{faults t} |W(t,τ)|. That last sum,
// and the working-set peak (always reached at a fault), couple the
// working-set size to fault instants and do not reduce to a histogram
// below the tail threshold T (see tail); Curve computes them exactly for
// a whole τ grid in one traversal (see Curve), which is what MinST and
// Run use. Every result Curve computes stays in the WS's window store,
// so a window is computed at most once per WS. All paths are
// cross-validated against brute per-cell replay in the tests. A WS is
// safe for concurrent use: the engine shares one per trace across
// concurrent table rows.
type WS struct {
	Refs int
	src  trace.Source

	// atLeast lists the distinct backward intervals b in ascending order,
	// each with the number of references whose interval is at least b.
	// First references count as interval Refs+1.
	atLeast []intervalCount
	// upTo lists the distinct forward distances d in ascending order, each
	// with the count and the sum of the distances of the references whose
	// distance is at most d.
	upTo []distanceSum

	// distinct is V, the number of distinct pages referenced.
	distinct int
	// tail is T, the larger of the largest backward interval and the
	// time of the last first reference. At every window τ ≥ T only first
	// references fault, and no page expires before the last of them, so
	// the k-th fault leaves k pages resident: Curve answers those windows
	// in closed form (closedForm) and walks the trace only for the rest.
	tail int

	// mu guards windows and serializes grid passes, so a window that
	// concurrent callers all lack is computed by one traversal.
	mu sync.Mutex
	// windows is the store: every result Curve has produced, by window.
	windows map[int]vmsim.Result
}

type intervalCount struct {
	b, refs int
}

type distanceSum struct {
	d         int
	refs, sum int64
}

// denseIntervals bounds the intervals intervalHist counts in an array;
// the longer ones, under 1% of the references of every workload trace,
// are counted by value in a map.
const denseIntervals = 1 << 14

// intervalHist counts references by interval, one counter per distinct
// interval: its memory follows the distinct intervals, not the stream's
// length.
type intervalHist struct {
	dense  []int
	sparse map[int]int
}

func (h *intervalHist) add(k int) {
	if k < len(h.dense) {
		h.dense[k]++
	} else {
		h.sparse[k]++
	}
}

// counts returns the occupied intervals in ascending order, each with
// its count.
func (h *intervalHist) counts() []intervalCount {
	var out []intervalCount
	for k, c := range h.dense {
		if c > 0 {
			out = append(out, intervalCount{k, c})
		}
	}
	long := make([]intervalCount, 0, len(h.sparse))
	for k, c := range h.sparse {
		long = append(long, intervalCount{k, c})
	}
	slices.SortFunc(long, func(a, b intervalCount) int { return cmp.Compare(a.b, b.b) })
	return append(out, long...)
}

// NewWS analyzes a reference stream's histograms in one traversal. The
// source is retained: Curve/Run/MinST traverse it again (at most once
// per call, for the windows below the tail threshold the store lacks).
func NewWS(src trace.Source) (*WS, error) {
	meta := src.Meta()
	n := meta.Refs
	s := &WS{Refs: n, src: src, windows: map[int]vmsim.Result{}}

	// hist counts references by interval; a build-time temporary. A
	// re-reference at backward interval k also ends the forward distance
	// k of the reference before it, so one histogram serves both sides.
	span, _ := pageSpan(meta)
	last := make([]int, span)
	hist := intervalHist{dense: make([]int, min(n+2, denseIntervals)), sparse: map[int]int{}}
	firsts := 0
	t := 0
	err := walkRefs(src, func(pages []mem.Page) {
		for _, pg := range pages {
			t++
			if prev := last[pg]; prev != 0 {
				hist.add(t - prev) // always <= n
			} else {
				firsts++
				s.tail = t
			}
			last[pg] = t
		}
	})
	if err != nil {
		return nil, err
	}

	s.distinct = firsts
	refs := firsts
	if firsts > 0 {
		s.atLeast = append(s.atLeast, intervalCount{n + 1, refs})
	}
	back := hist.counts()
	for i := len(back) - 1; i >= 0; i-- {
		b := back[i]
		s.tail = max(s.tail, b.b)
		refs += b.refs
		s.atLeast = append(s.atLeast, intervalCount{b.b, refs})
	}
	slices.Reverse(s.atLeast)

	// Final references run to the end of the stream.
	for _, pos := range last {
		if pos != 0 {
			hist.add(n - pos + 1)
		}
	}
	var cnt, sum int64
	for _, d := range hist.counts() {
		cnt += int64(d.refs)
		sum += int64(d.b) * int64(d.refs)
		s.upTo = append(s.upTo, distanceSum{d.b, cnt, sum})
	}
	return s, nil
}

// Faults returns PF under window size tau.
func (s *WS) Faults(tau int) int {
	if tau < 1 {
		tau = 1
	}
	k := tau + 1
	if k > s.Refs+1 {
		k = s.Refs + 1
	}
	// References with interval >= k.
	i := sort.Search(len(s.atLeast), func(i int) bool { return s.atLeast[i].b >= k })
	if i == len(s.atLeast) {
		return 0
	}
	return s.atLeast[i].refs
}

// MemSum returns Σ_t |W(t,τ)|. The sum is an integer below 2^53, so the
// float64 conversion is exact and matches per-cell accumulation bit for
// bit.
func (s *WS) MemSum(tau int) float64 {
	return float64(s.memSum(tau))
}

// memSum is MemSum in integers: Σ min(τ, d) = Σ_{d<=τ} d + τ·#{d>τ}.
func (s *WS) memSum(tau int) int64 {
	tau = min(max(tau, 1), s.Refs+1)
	var within distanceSum
	if i := sort.Search(len(s.upTo), func(i int) bool { return s.upTo[i].d > tau }); i > 0 {
		within = s.upTo[i-1]
	}
	var total int64
	if len(s.upTo) > 0 {
		total = s.upTo[len(s.upTo)-1].refs
	}
	return within.sum + int64(tau)*(total-within.refs)
}

// MEM returns the average working-set size under window size tau.
func (s *WS) MEM(tau int) float64 {
	if s.Refs == 0 {
		return 0
	}
	return s.MemSum(tau) / float64(s.Refs)
}

// TauForMEM returns the window size whose average working-set size is
// closest to target (MEM is non-decreasing in τ, so binary search).
func (s *WS) TauForMEM(target float64) int {
	lo, hi := 1, s.Refs
	if hi < 1 {
		return 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if s.MEM(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first τ with MEM >= target; τ-1 may be closer.
	if lo > 1 && target-s.MEM(lo-1) < s.MEM(lo)-target {
		return lo - 1
	}
	return lo
}

// MinTauForFaults returns the smallest window size whose fault count is at
// most target (faults are non-increasing in τ). The second result is false
// if no window achieves the target.
func (s *WS) MinTauForFaults(target int) (int, bool) {
	if s.Faults(s.Refs) > target {
		return s.Refs, false
	}
	lo, hi := 1, s.Refs
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Faults(mid) <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// Run returns the exact replay result at one window size, read off the
// curve engine. also lists windows the caller will ask for next: Curve
// computes them in the same traversal and keeps them in the store.
func (s *WS) Run(tau int, also ...int) (vmsim.Result, error) {
	rs, err := s.Curve(append([]int{tau}, also...))
	if err != nil {
		return vmsim.Result{}, err
	}
	return rs[0], nil
}

// MinST scans the standard τ ladder for the window minimizing the
// space-time cost, computing the whole ladder's exact results (and the
// windows in also, as in Run) in one traversal at most. It returns the
// best τ and its full result; ties break toward the smaller τ
// (strict-less scan in ladder order), matching the per-cell ladder scan.
func (s *WS) MinST(also ...int) (int, vmsim.Result, error) {
	taus := vmsim.DefaultTaus(s.Refs)
	curve, err := s.Curve(append(taus, also...))
	if err != nil {
		return 0, vmsim.Result{}, err
	}
	bestTau, best := taus[0], curve[0]
	for i, tau := range taus[1:] {
		if r := curve[i+1]; r.SpaceTime < best.SpaceTime {
			bestTau, best = tau, r
		}
	}
	return bestTau, best, nil
}

// Curve returns the exact replay result for every window size in taus —
// PF, MEM, the fault-coupled space-time integral, peak working set —
// from the store, computing the windows it lacks first: those at or
// above the tail threshold in closed form, the rest in ONE traversal of
// the stream (none when every lacking window is in the tail).
//
// PF and MemSum come from the histograms; the traversal (runGrid)
// computes only the working-set size summed over fault instants, and
// its peak. Its scan keeps a one-word live mask of the last 64 steps,
// from which a window up to 64 reads its working set at each of its
// faults as a popcount. The larger windows go through the stream in
// fixed time blocks, window by window: a reference the mask outlives
// enters the smallest one's queue, and each window in ascending τ
// expires the references due in the block that were not re-referenced
// within τ, hands them on to the next window (a page that outlives a
// window outlives every smaller one), and merges those expiries with
// its faults in time order. Total work is O(R + Σ_{τ≤64} PF(τ) +
// survivors + Σ_{τ>64} (PF(τ) + expiries(τ))), the activity the curves
// themselves measure, instead of O(R×|grid|). Its memory follows the
// largest window walked, which lies below the tail threshold however
// large the requested windows are. Windows below 1 are treated as 1.
func (s *WS) Curve(taus []int) ([]vmsim.Result, error) {
	if len(taus) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var walk []int
	for _, tau := range taus {
		tau = max(tau, 1)
		if _, ok := s.windows[tau]; ok {
			continue
		}
		if tau >= s.tail {
			s.windows[tau] = s.closedForm(tau)
		} else {
			walk = append(walk, tau)
		}
	}
	if len(walk) > 0 {
		slices.Sort(walk)
		walk = slices.Compact(walk)
		grid, err := s.runGrid(walk)
		if err != nil {
			return nil, err
		}
		for i, tau := range walk {
			s.windows[tau] = grid[i]
		}
	}
	out := make([]vmsim.Result, len(taus))
	for i, tau := range taus {
		out[i] = s.windows[max(tau, 1)]
	}
	return out, nil
}

// closedForm is the result at a window τ at or above the tail threshold
// (see tail): only the V first references fault, the k-th leaving k
// pages resident, so the peak is V and the working set summed over
// fault instants is V(V+1)/2.
func (s *WS) closedForm(tau int) vmsim.Result {
	v := int64(s.distinct)
	return s.result(tau, s.distinct, v*(v+1)/2)
}

// result assembles window τ's Result from its histograms and the two
// fault-coupled figures: the working-set peak and the working-set size
// summed over fault instants.
func (s *WS) result(tau, peak int, atFaults int64) vmsim.Result {
	pf := s.Faults(tau)
	memSum := s.memSum(tau)
	return vmsim.ResultOf(policy.NewWS(tau), s.Refs, &policy.BlockResult{
		Faults:      pf,
		MaxResident: peak,
		VTime:       int64(s.Refs) + int64(pf)*policy.FaultService,
		MemSum:      memSum,
		SpaceTime:   memSum + policy.FaultService*atFaults,
	})
}

// gridPass, when set, observes every grid traversal: its windows, the
// slot count of its position ring and how many references entered its
// expiry queues. The tests count traversals with it.
var gridPass func(grid []int, ring, queued int)

// wsBlock is the grid pass's time block, in references: the pass scans
// a block once, then runs every window above the live mask across it in
// turn.
const wsBlock = 1 << 12

// liveBits is the width of the scan's live mask: a window up to it
// reads its working set off the mask, and a reference enters the expiry
// queues only if it is still its page's latest reference this many
// steps on.
const liveBits = 64

// maskWindow is the state of a window no wider than the live mask.
type maskWindow struct {
	tau int
	// low selects the mask's last tau positions.
	low uint64
	// peak is the working set's largest size so far and atFaults its
	// sum over the fault instants so far.
	peak     int
	atFaults int64
}

// gridWindow is the state of a window wider than the live mask.
type gridWindow struct {
	tau int
	// ws is the live working-set size, peak its largest value so far and
	// atFaults its sum over the fault instants so far.
	ws, peak int
	atFaults int64
	// pending holds, from head on, the window's expiry sources not yet
	// due, oldest first, by ring slot: for the smallest window every
	// reference still live liveBits steps on, and for each larger one
	// those the window below expired.
	pending []int32
	head    int
}

// blockFault is a fault of the smallest window above the live mask in
// the current block: its step's offset in the block and its backward
// interval, capped below the ring length (first references count as the
// cap).
type blockFault struct {
	at, gap int32
}

// runGrid executes the grid pass over the sorted unique grid, returning
// one result per window in grid order.
//
// The scan keeps a live mask: bit i is set while the reference i steps
// back is still its page's latest. A re-reference at backward interval
// b ≤ liveBits clears the bit of the reference it follows, so the
// working set of a window τ ≤ liveBits is the popcount of the mask's
// last τ bits, read at each of its faults. A bit still set when it
// leaves the mask is a reference that outlived liveBits steps: only
// those enter the window-major queues of the larger windows (advance).
func (s *WS) runGrid(grid []int) ([]vmsim.Result, error) {
	n := s.Refs
	k, _ := slices.BinarySearch(grid, liveBits+1)
	small := make([]maskWindow, k)
	for i, tau := range grid[:k] {
		small[i] = maskWindow{tau: tau, low: ^uint64(0) >> (liveBits - tau)}
	}
	big := grid[k:]
	// The position ring keeps, for every reference a window above the
	// mask may still expire, the forward distance to the next reference
	// of its page: such a reference lies within the largest window plus
	// one block behind the scan. A grid within the mask needs none.
	ring := 0
	if len(big) > 0 {
		ring = 1
		for ring < min(big[len(big)-1]+wsBlock, n+1) {
			ring *= 2
		}
	}
	mask := ring - 1
	// next[u&mask] is written only for a reference u in the queues: 0
	// when u enters them, next(u)−u once the scan reaches its page's
	// next reference. A distance of a whole ring or more exceeds every
	// window and is never recorded.
	next := make([]int32, ring)
	span, _ := pageSpan(s.src.Meta())
	last := make([]int, span)
	// One window past the grid: a sink for the largest one's expiries.
	wins := make([]gridWindow, len(big)+1)
	for i, tau := range big {
		wins[i].tau = tau
	}
	faults := make([]blockFault, 0, wsBlock)
	expAt := make([]int32, wsBlock)

	var live uint64
	queued, start, t := 0, 1, 0
	err := walkRefs(s.src, func(pages []mem.Page) {
		for _, pg := range pages {
			t++
			b := n + 1 // a first reference: longer than every window
			if prev := last[pg]; prev != 0 {
				b = t - prev
				if b > liveBits && b <= mask {
					next[prev&mask] = int32(b)
				}
			}
			last[pg] = t
			if b <= liveBits {
				live &^= 1 << (b - 1)
			}
			outlived := live >> (liveBits - 1)
			live = live<<1 | 1
			for i := 0; i < len(small) && b > small[i].tau; i++ {
				w := &small[i]
				ws := bits.OnesCount64(live & w.low)
				w.peak = max(w.peak, ws)
				w.atFaults += int64(ws)
			}
			if len(big) == 0 {
				continue
			}
			if outlived != 0 {
				slot := (t - liveBits) & mask
				next[slot] = 0
				wins[0].pending = append(wins[0].pending, int32(slot))
				queued++
			}
			if b > big[0] {
				faults = append(faults, blockFault{int32(t - start), int32(min(b, mask))})
			}
			if t-start == wsBlock-1 {
				advance(wins, next, faults, expAt, start, t)
				start, faults = t+1, faults[:0]
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if t >= start {
		advance(wins, next, faults, expAt, start, t)
	}
	if gridPass != nil {
		gridPass(grid, ring, queued)
	}
	out := make([]vmsim.Result, 0, len(grid))
	for _, w := range small {
		out = append(out, s.result(w.tau, w.peak, w.atFaults))
	}
	for _, w := range wins[:len(big)] {
		out = append(out, s.result(w.tau, w.peak, w.atFaults))
	}
	return out, nil
}

// advance runs every window, in ascending τ, across the block of steps
// [start, end]. Each window expires its sources due in the block that
// were not re-referenced within τ and hands them on to the next window
// (a page that outlives a window outlives every smaller one). It then
// merges those expiries with its faults in step order. faults lists the
// smallest window's faults in the block; each window keeps, in place,
// the ones it shares with the next. expAt is a work buffer for one
// window's expiry offsets in the block.
func advance(wins []gridWindow, next []int32, faults []blockFault, expAt []int32, start, end int) {
	mask := len(next) - 1
	for i := range wins[:len(wins)-1] {
		w, up := &wins[i], &wins[i+1]
		// A source lies less than a ring behind end, so its slot fixes
		// its age; the due ones, at least τ old, are a prefix.
		q := w.pending[w.head:]
		due := sort.Search(len(q), func(j int) bool { return (end-int(q[j]))&mask < w.tau })
		w.head += due
		from := len(up.pending)
		up.pending = expire(up.pending, q[:due], next, w.tau, end, end-start, expAt)
		exp := expAt[:len(up.pending)-from]
		faults = merge(w, faults, exp)
		// Drop the popped prefix once it is half the queue, so each
		// source moves a constant number of times on average.
		if 2*w.head >= len(w.pending) {
			w.pending = w.pending[:copy(w.pending, w.pending[w.head:])]
			w.head = 0
		}
	}
	sink := &wins[len(wins)-1]
	sink.pending = sink.pending[:0]
}

// expire appends to out the sources in due not re-referenced within tau,
// and writes to expAt the block offset of each one's expiry: the step
// tau after it. The block ends at step end, offset endAt. Whether a
// source survives is data, so the loop selects instead of branching.
func expire(out, due, next []int32, tau, end, endAt int, expAt []int32) []int32 {
	mask := len(next) - 1
	n := len(out)
	out = slices.Grow(out, len(due))[:n+len(due)]
	k := 0
	for _, slot := range due {
		out[n+k] = slot
		expAt[k] = int32(endAt + tau - (end-int(slot))&mask)
		// next is 0 until the re-reference, which wraps to the
		// largest distance here.
		if uint32(next[slot])-1 >= uint32(tau) {
			k++
		}
	}
	return out[:n+k]
}

// merge steps window w through its faults and expiries in the block, in
// step order, adding the working-set size just after each fault to its
// sum and peak. An expiry on a fault's step counts first, as in a
// replay, where the faulting page enters the working set after the
// window has slid. It returns the faults the window keeps (in place).
func merge(w *gridWindow, faults []blockFault, exp []int32) []blockFault {
	tau := int32(w.tau)
	ws, peak, sum := w.ws, w.peak, w.atFaults
	j, n := 0, 0
	for _, f := range faults {
		if f.gap <= tau {
			continue
		}
		faults[n] = f
		n++
		for j < len(exp) && exp[j] <= f.at {
			j++
		}
		now := ws + n - j
		peak = max(peak, now)
		sum += int64(now)
	}
	w.ws, w.peak, w.atFaults = ws+n-len(exp), peak, sum
	return faults[:n]
}
