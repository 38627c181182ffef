// Package vmsim drives memory-management policies over page-reference
// traces and accumulates the paper's three performance indexes: the number
// of page faults (PF), the average memory allocated to the program (MEM),
// and the space-time cost (ST), with page-fault service time of 2000
// memory references (§5).
//
// Virtual time advances one unit per reference plus FaultService units per
// fault; the space-time integral accumulates resident-set-size × elapsed
// virtual time, so holding a large resident set across a fault is charged
// 2000× more than across a hit — exactly the trade-off the paper's ST
// index captures.
package vmsim

import (
	"fmt"
	"sync"

	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// Result holds the performance indexes of one simulation run.
type Result struct {
	Policy string
	Refs   int
	Faults int
	// MemSum is Σ resident-set-size sampled after every reference.
	MemSum float64
	// SpaceTime is the pages × virtual-time integral (the paper's ST).
	SpaceTime float64
	// VirtualTime is Refs + Faults × FaultService.
	VirtualTime int64
	// SwapSignals and LockReleases are CD-specific counters (0 otherwise).
	SwapSignals  int
	LockReleases int
	// MaxResident is the peak resident-set size.
	MaxResident int
	// Degraded reports that a CD policy hit a directive-contract
	// violation and served the rest of the run from its WS fallback;
	// DegradedReason is the first violation observed.
	Degraded       bool
	DegradedReason string
}

// MEM returns the average memory allocated, in pages, averaged over
// references.
func (r Result) MEM() float64 {
	if r.Refs == 0 {
		return 0
	}
	return r.MemSum / float64(r.Refs)
}

// ST returns the space-time cost.
func (r Result) ST() float64 { return r.SpaceTime }

// FaultRate returns faults per thousand references.
func (r Result) FaultRate() float64 {
	if r.Refs == 0 {
		return 0
	}
	return 1000 * float64(r.Faults) / float64(r.Refs)
}

// String summarizes the result. The CD-specific swap-signal and forced
// lock-release counters are included when nonzero.
func (r Result) String() string {
	s := fmt.Sprintf("%s: PF=%d MEM=%.2f ST=%.3g (R=%d)", r.Policy, r.Faults, r.MEM(), r.ST(), r.Refs)
	if r.SwapSignals > 0 {
		s += fmt.Sprintf(" swap-signals=%d", r.SwapSignals)
	}
	if r.LockReleases > 0 {
		s += fmt.Sprintf(" lock-releases=%d", r.LockReleases)
	}
	if r.Degraded {
		s += fmt.Sprintf(" DEGRADED(%s)", r.DegradedReason)
	}
	return s
}

// Run replays the trace under the policy on the bare fast path. The
// policy is Reset first, so a single policy value can be reused across
// runs.
//
// Run and its siblings are safe for concurrent use with DISTINCT policy
// values over the same (immutable) trace: the simulation mutates only
// the policy and its own Result, never the trace. Concurrent runs that
// share one policy value race on its state; give each goroutine its own,
// and give parallel observed runs their own observers (as the engine
// package does).
func Run(tr *trace.Trace, pol policy.Policy) Result {
	res, _ := replay(tr, pol, nil, nil) // in-memory cursors cannot fail
	return res
}

// RunSource replays any reference-stream Source — an in-memory trace or
// a chunked CDT3 file — under the policy, streaming block by block in
// O(chunk) memory. Observation works as in RunObserved. The error is the
// cursor's: an on-disk source can fail mid-stream (truncation,
// corruption, IO), in which case the Result is valid up to the failure
// point. In-memory sources never fail.
func RunSource(src trace.Source, pol policy.Policy, o *obs.Observer) (Result, error) {
	if !o.Enabled() {
		return replay(src, pol, obs.ProgressOf(o), nil)
	}
	w, restore := observeHooks(o, pol, src)
	defer restore()
	return replay(src, pol, o.Progress, w)
}

// Prepare readies a policy for a replay of a stream: it Resets the
// policy, then pre-sizes its dense page-indexed state from the stream's
// page universe, seeing through Unwrap wrappers, so the first replay
// assigns page slots without growth reallocations. Meta is O(1) for
// every source, so the hint never materializes trace views.
func Prepare(pol policy.Policy, meta trace.Meta) {
	pol.Reset()
	for p := pol; p != nil; {
		if h, ok := p.(policy.PageHinter); ok {
			h.HintPages(meta.MaxPage, meta.Distinct)
			return
		}
		u, ok := p.(interface{ Unwrap() policy.Policy })
		if !ok {
			return
		}
		p = u.Unwrap()
	}
}

// ApplyDirective feeds a block-closing directive event to the policy.
func ApplyDirective(pol policy.Policy, tb *trace.SideTables, e trace.Event) {
	switch e.Kind {
	case trace.EvAlloc:
		pol.Alloc(tb.Alloc(e))
	case trace.EvLock:
		pol.Lock(tb.Lock(e))
	case trace.EvUnlock:
		pol.Unlock(tb.Unlock(e))
	}
}

// ResultOf finishes a replay: it converts a policy's accumulated indexes
// over a stream of refs references into the Result, adding CD's counters
// and degradation state when the policy is (a wrapper around) CD.
func ResultOf(pol policy.Policy, refs int, acc *policy.BlockResult) Result {
	res := Result{
		Policy:      pol.Name(),
		Refs:        refs,
		Faults:      acc.Faults,
		MemSum:      float64(acc.MemSum),
		SpaceTime:   float64(acc.SpaceTime),
		VirtualTime: acc.VTime,
		MaxResident: acc.MaxResident,
	}
	if cd := policy.AsCD(pol); cd != nil {
		res.SwapSignals = cd.SwapSignals
		res.LockReleases = cd.LockReleases
		res.Degraded = cd.Degraded()
		res.DegradedReason = cd.DegradedReason()
	}
	return res
}

// progressChunk is how many trace events a replay with a progress
// callback executes between callbacks. The chunk is large enough that
// the outer loop's bookkeeping amortizes to nothing (a chunk is a few
// hundred microseconds of simulation) while still giving a live
// /progress endpoint dozens of updates per second on big traces.
const progressChunk = 1 << 15

// blockResultPool recycles the accumulator the fast path hands to
// StepBlock. Passing &out through the BlockStepper interface makes the
// compiler heap-allocate it, so without the pool every Run costs one
// allocation even though the replay itself is allocation-free.
var blockResultPool = sync.Pool{New: func() any { return new(policy.BlockResult) }}

// hooks watch a replay event by event. A watched replay steps every
// reference through policy.StepRef, calls ref after each reference and
// directive before each directive is applied, and end with the finished
// Result. Before each event the loop records its site and kind here and
// the run's indexes accumulate in acc, so callbacks firing inside a
// policy call (CD transitions, evictions) see the virtual time reached
// and the event that caused them.
type hooks struct {
	acc  policy.BlockResult // the run's indexes so far
	site int32              // site of the current event (trace.NoSite without a site column)
	kind trace.EventKind    // kind of the current event

	// sites streams the trace's site column into site.
	sites bool
	// ref receives each reference's page, fault, virtual-time step and
	// space-time charge.
	ref       func(pg mem.Page, fault bool, dt int64, charged int)
	directive func(e trace.Event)
	end       func(res Result)
}

// replay is the simulator's one replay loop: it streams src block by
// block under pol and accumulates the paper's indexes in int64 (every
// charge and time step is an integer, so the sums are exact where the
// float64 Result fields would start rounding past 2^53).
//
// Unwatched (w == nil), a policy with a StepBlock of its own replays each
// directive-free block in one call, hoisting loop-invariant work out of
// the per-reference path; any other policy, and every watched replay,
// steps one reference at a time through policy.StepRef — the rule every
// StepBlock must fold, and so the differential oracle of the block path.
//
// prog, when non-nil, caps blocks at progressChunk events and receives
// the events consumed (out of Meta().Events) and the virtual time after
// every block, so callbacks fire at a steady cadence.
func replay(src trace.Source, pol policy.Policy, prog obs.ProgressFunc, w *hooks) (Result, error) {
	meta := src.Meta()
	Prepare(pol, meta)
	tb := src.Tables()

	opts := trace.CursorOpts{}
	if prog != nil {
		opts.MaxBlock = progressChunk
	}
	var out *policy.BlockResult
	var bst policy.BlockStepper
	if w != nil {
		opts.WithSites = w.sites
		out = &w.acc
	} else {
		// The accumulator is fed to StepBlock through the BlockStepper
		// interface, which forces it to the heap; pooling it keeps the
		// steady-state replay at zero allocations.
		out = blockResultPool.Get().(*policy.BlockResult)
		*out = policy.BlockResult{}
		defer blockResultPool.Put(out)
		bst, _ = pol.(policy.BlockStepper)
	}

	done := 0 // events consumed, for progress reporting
	step := func(b trace.Block) bool {
		switch {
		case bst != nil:
			bst.StepBlock(b.Pages, out)
		case w == nil:
			for _, pg := range b.Pages {
				policy.StepRef(pol, pg, out)
			}
		default:
			for i, pg := range b.Pages {
				w.site, w.kind = trace.NoSite, trace.EvRef
				if b.Sites != nil {
					w.site = b.Sites[i]
				}
				vt := out.VTime
				fault, charged := policy.StepRef(pol, pg, out)
				w.ref(pg, fault, out.VTime-vt, charged)
			}
		}
		if b.HasDir {
			if w != nil {
				w.site, w.kind = b.DirSite, b.Dir.Kind
				w.directive(b.Dir)
			}
			ApplyDirective(pol, tb, b.Dir)
		}
		if prog != nil {
			done += b.Events()
			prog(done, meta.Events, out.VTime)
		}
		return true
	}

	// In-memory traces walk with the cursor on the stack: the whole
	// replay allocates nothing after the policy's Reset.
	walkErr := trace.Walk(src, opts, step)
	if prog != nil && done < meta.Events {
		// The stream ended early (cursor error): report where it stopped.
		prog(done, meta.Events, out.VTime)
	}
	res := ResultOf(pol, meta.Refs, out)
	if w != nil {
		w.end(res)
	}
	return res, walkErr
}

// DefaultTaus builds the WS window-size sweep for a trace of length R:
// a geometric ladder from 1 to R covering the interesting range densely.
func DefaultTaus(refLen int) []int {
	var taus []int
	seen := map[int]bool{}
	add := func(t int) {
		if t >= 1 && t <= refLen && !seen[t] {
			seen[t] = true
			taus = append(taus, t)
		}
	}
	for t := 1; t <= refLen; {
		add(t)
		// ~12% steps give a dense enough ladder to match MEM targets.
		nt := t + t/8
		if nt == t {
			nt = t + 1
		}
		t = nt
	}
	return taus
}
