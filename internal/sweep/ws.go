package sweep

import (
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
// The space-time integral couples the working-set size to fault instants
// and does not reduce to a histogram below the tail threshold T (see
// tail); Curve computes it exactly for a whole τ grid in one
// event-driven traversal (see Curve), which is what MinST and Run use.
// Every result Curve computes stays in the WS's window store, so a
// window is computed at most once per WS. All paths are cross-validated
// against brute per-cell replay in the tests. A WS is safe for
// concurrent use: the engine shares one per trace across concurrent
// table rows.
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
	hist := make([]int, n+2)
	firsts := 0
	t := 0
	err := walkRefs(src, func(pages []mem.Page) {
		for _, pg := range pages {
			t++
			if prev := last[pg]; prev != 0 {
				hist[t-prev]++ // always <= n
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
	for b := n; b >= 1; b-- {
		if hist[b] > 0 {
			s.tail = max(s.tail, b)
			refs += hist[b]
			s.atLeast = append(s.atLeast, intervalCount{b, refs})
		}
	}
	slices.Reverse(s.atLeast)

	// Final references run to the end of the stream.
	for _, pos := range last {
		if pos != 0 {
			hist[n-pos+1]++
		}
	}
	var cnt, sum int64
	for d := 1; d <= n+1; d++ {
		if hist[d] > 0 {
			cnt += int64(hist[d])
			sum += int64(d) * int64(hist[d])
			s.upTo = append(s.upTo, distanceSum{d, cnt, sum})
		}
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
// The traversal is event-driven. Grid windows are kept sorted; per
// window i it holds the live working-set size ws[i] and the last
// materialized step lastT[i], accumulating the (overwhelmingly common)
// no-change steps lazily as ws[i]×Δt. Per step t with backward interval
// b, windows with τ < b fault (a prefix of the sorted grid, found by
// binary search). Expiries are lazy chains through a calendar ring: the
// reference at time u schedules one event at u+τ₀; when it fires, the
// chain dies if the page was re-referenced meanwhile, otherwise window 0
// expires the page and the chain advances to u+τ₁, and so on up the
// grid. Total work is O(R·log|grid| + Σ_i PF(τ_i) + Σ_i X(τ_i)) — the
// activity the curves themselves measure — instead of O(R×|grid|). The
// ring has one slot per step of the largest window walked, which lies
// below the tail threshold however large the requested windows are.
// Windows below 1 are treated as 1.
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
// pages resident through its FaultService extra time units. So PF and
// the peak are V, VTime = R + V·FaultService and
// ST = MemSum(τ) + FaultService·V(V+1)/2.
func (s *WS) closedForm(tau int) vmsim.Result {
	v := int64(s.distinct)
	memSum := s.memSum(tau)
	return vmsim.ResultOf(policy.NewWS(tau), s.Refs, &policy.BlockResult{
		Faults:      s.distinct,
		MaxResident: s.distinct,
		VTime:       int64(s.Refs) + v*policy.FaultService,
		MemSum:      memSum,
		SpaceTime:   memSum + policy.FaultService*v*(v+1)/2,
	})
}

// gridPass, when set, observes every grid traversal: its windows and the
// slot count of its calendar ring. The tests count traversals with it.
var gridPass func(grid []int, ring int)

// chain is one reference's expiry chain in runGrid's calendar ring: the
// next node+1 in its fire-slot bucket (0 ends it), the page, and the grid
// index of its pending expiry.
type chain struct {
	next, page, idx int32
}

// runGrid executes the event-driven lockstep pass over the sorted unique
// grid, returning one result per window in grid order.
func (s *WS) runGrid(uniq []int) ([]vmsim.Result, error) {
	n := s.Refs
	g := len(uniq)
	meta := s.src.Meta()

	// Per-window state.
	ws := make([]int, g)     // live working-set size
	pf := make([]int, g)     // faults
	maxws := make([]int, g)  // peak working-set size
	memS := make([]int64, g) // Σ resident after each step
	stS := make([]int64, g)  // Σ resident × dt
	lastT := make([]int, g)  // next unmaterialized step
	exitAt := make([]int, g) // step stamp: window expired a page this step
	for i := range lastT {
		lastT[i] = 1
		exitAt[i] = -1
	}

	// Calendar ring of expiry chains. A chain lives at node u % W (at
	// most one per reference in the trailing τ_max window), linked into
	// the bucket of its next fire time. A chain firing at step t for
	// window i was created at u = t − τ_i.
	w := uniq[g-1] + 1
	if w > n+1 {
		w = n + 1 // fire times never exceed n
	}
	if w < 1 {
		w = 1
	}
	if gridPass != nil {
		gridPass(uniq, w)
	}
	heads := make([]int32, w) // fire-slot -> node+1; 0 = empty
	nodes := make([]chain, w)

	span, _ := pageSpan(meta)
	last := make([]int, span)
	exits := make([]int32, 0, g)
	tau0 := uniq[0]
	fs := int64(1 + policy.FaultService)

	t := 0
	err := walkRefs(s.src, func(pages []mem.Page) {
		for _, pg := range pages {
			t++
			prev := last[pg]
			last[pg] = t

			// Drain this step's expiry chains. The current reference is
			// already stamped, so a chain whose page is being re-touched
			// right now (backward interval exactly τ) correctly dies:
			// insertion precedes expiry in the per-cell replay.
			exits = exits[:0]
			slot := int32(t % w)
			for nd := heads[slot]; nd != 0; {
				link := nd // c's node+1
				c := &nodes[nd-1]
				nd = c.next
				i := c.idx
				u := t - uniq[i]
				if last[c.page] != u {
					continue // page re-referenced in (u, t]: chain dies
				}
				exits = append(exits, i)
				if int(i+1) < g {
					if fire := u + uniq[i+1]; fire <= n {
						c.idx = i + 1
						s2 := fire % w
						c.next = heads[s2]
						heads[s2] = link
					}
				}
			}
			heads[slot] = 0

			// Windows with τ < b fault: a prefix of the sorted grid.
			faultIdx := 0
			if prev == 0 {
				faultIdx = g
			} else if b := t - prev; b > tau0 {
				if b > uniq[g-1] {
					faultIdx = g
				} else {
					faultIdx = sort.SearchInts(uniq, b)
				}
			}

			// Expiries alone (no fault): resident shrinks by one.
			for _, e := range exits {
				i := int(e)
				if i < faultIdx {
					exitAt[i] = t // merge with the fault below
					continue
				}
				if gap := t - lastT[i]; gap > 0 {
					r := int64(ws[i])
					memS[i] += r * int64(gap)
					stS[i] += r * int64(gap)
				}
				ws[i]--
				r := int64(ws[i])
				memS[i] += r
				stS[i] += r
				lastT[i] = t + 1
			}
			// Faults: resident grows by one (unless an expiry landed on
			// the same step), and the step costs 1+FaultService.
			for i := 0; i < faultIdx; i++ {
				if gap := t - lastT[i]; gap > 0 {
					r := int64(ws[i])
					memS[i] += r * int64(gap)
					stS[i] += r * int64(gap)
				}
				if exitAt[i] != t {
					ws[i]++
					if ws[i] > maxws[i] {
						maxws[i] = ws[i]
					}
				}
				pf[i]++
				r := int64(ws[i])
				memS[i] += r
				stS[i] += r * fs
				lastT[i] = t + 1
			}

			// Schedule this reference's expiry chain.
			if fire := t + tau0; fire <= n {
				node := t % w
				s2 := fire % w
				nodes[node] = chain{next: heads[s2], page: int32(pg)}
				heads[s2] = int32(node + 1)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// Materialize the tail: constant working set to the end of the run.
	out := make([]vmsim.Result, g)
	for i := range ws {
		if gap := n + 1 - lastT[i]; gap > 0 {
			r := int64(ws[i])
			memS[i] += r * int64(gap)
			stS[i] += r * int64(gap)
		}
		vt := int64(n) + int64(pf[i])*policy.FaultService
		out[i] = vmsim.ResultOf(policy.NewWS(uniq[i]), n, &policy.BlockResult{
			Faults:      pf[i],
			MaxResident: maxws[i],
			VTime:       vt,
			MemSum:      memS[i],
			SpaceTime:   stS[i],
		})
	}
	return out, nil
}
