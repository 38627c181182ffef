package vmsim

import (
	"strings"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// cdPhaseTrace builds a trace with two ALLOCATE phases, a LOCK/UNLOCK
// pair, and a locality shift, exercising every event kind CD can emit.
func cdPhaseTrace() *trace.Trace {
	tr := trace.New("cdphase")
	d1 := &directive.Allocate{Arms: []directive.Arm{{PI: 2, X: 8}, {PI: 1, X: 4}}}
	d2 := &directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 2}}}
	tr.AddAlloc(d1)
	for r := 0; r < 10; r++ {
		for i := 0; i < 8; i++ {
			tr.AddRef(mem.Page(i))
		}
	}
	tr.AddLock(2, 1, []mem.Page{0, 1})
	tr.AddAlloc(d2)
	for r := 0; r < 10; r++ {
		for i := 8; i < 12; i++ {
			tr.AddRef(mem.Page(i))
		}
	}
	tr.AddUnlock([]mem.Page{0, 1})
	for r := 0; r < 5; r++ {
		for i := 0; i < 4; i++ {
			tr.AddRef(mem.Page(i))
		}
	}
	return tr
}

// TestEventStreamMatchesResult is the audit guarantee: replaying the
// emitted event stream reconstructs the run's fault count and memory sum
// exactly — bit for bit, not approximately.
func TestEventStreamMatchesResult(t *testing.T) {
	cases := []struct {
		name string
		tr   *trace.Trace
		pol  policy.Policy
	}{
		{"LRU", randomTrace(7, 5000, 40).RefsOnly(), policy.NewLRU(8)},
		{"WS", randomTrace(11, 5000, 40).RefsOnly(), policy.NewWS(64)},
		{"CD", cdPhaseTrace(), policy.NewCD(policy.SelectLevel(2), 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := &obs.Collector{}
			reg := obs.NewRegistry()
			res := RunObserved(tc.tr, tc.pol, &obs.Observer{Tracer: col, Metrics: reg})

			refs, faults, memSum := obs.Replay(col.Events)
			if refs != res.Refs {
				t.Errorf("replayed refs = %d, result %d", refs, res.Refs)
			}
			if faults != res.Faults {
				t.Errorf("replayed faults = %d, result %d", faults, res.Faults)
			}
			if memSum != res.MemSum {
				t.Errorf("replayed memSum = %v, result %v", memSum, res.MemSum)
			}
			if got := reg.Counter("faults").Value(); got != int64(res.Faults) {
				t.Errorf("faults counter = %d, result %d", got, res.Faults)
			}
			if got := reg.Counter("refs").Value(); got != int64(res.Refs) {
				t.Errorf("refs counter = %d, result %d", got, res.Refs)
			}
			// The resident histogram observes the same per-reference charge
			// the memory sum accumulates, in the same order.
			h := reg.Histogram("resident_pages", nil)
			if h.Sum() != res.MemSum || h.Count() != int64(res.Refs) {
				t.Errorf("resident histogram sum/count = %v/%d, want %v/%d",
					h.Sum(), h.Count(), res.MemSum, res.Refs)
			}
		})
	}
}

// TestObservedMatchesFast verifies instrumentation changes nothing about
// the simulation itself.
func TestObservedMatchesFast(t *testing.T) {
	tr := cdPhaseTrace()
	fast := Run(tr, policy.NewCD(policy.SelectLevel(2), 2))
	obsd := RunObserved(tr, policy.NewCD(policy.SelectLevel(2), 2),
		&obs.Observer{Tracer: &obs.Collector{}, Metrics: obs.NewRegistry()})
	if fast != obsd {
		t.Errorf("observed run diverged:\n fast %+v\n obsd %+v", fast, obsd)
	}
}

// TestObservedCDEmitsDirectiveEvents checks the CD hook points: phase
// changes, lock/unlock framing, and run framing all appear in the stream.
func TestObservedCDEmitsDirectiveEvents(t *testing.T) {
	col := &obs.Collector{}
	RunObserved(cdPhaseTrace(), policy.NewCD(policy.SelectLevel(2), 2), &obs.Observer{Tracer: col})
	kinds := map[string]int{}
	for _, e := range col.Events {
		kinds[e.Kind]++
	}
	for _, k := range []string{obs.KindRun, obs.KindFault, obs.KindRes, obs.KindAlloc,
		obs.KindPhase, obs.KindLock, obs.KindUnlock, obs.KindEnd} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in stream (kinds: %v)", k, kinds)
		}
	}
	if kinds[obs.KindRun] != 1 || kinds[obs.KindEnd] != 1 {
		t.Errorf("stream framing: %d run, %d end events", kinds[obs.KindRun], kinds[obs.KindEnd])
	}
	last := col.Events[len(col.Events)-1]
	if last.Kind != obs.KindEnd {
		t.Errorf("stream does not end with an end event: %+v", last)
	}
}

// TestObservedMetricsOrderIndependent: the runs of a plan share one
// metrics registry and finish in any order at -j > 1, so what they leave
// in it must not depend on which run finishes last. Observing A then B
// and B then A must give the same snapshot.
func TestObservedMetricsOrderIndependent(t *testing.T) {
	tr := cdPhaseTrace()
	snapshot := func(first, second policy.Policy) string {
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		RunObserved(tr, first, o)
		RunObserved(tr, second, o)
		var b strings.Builder
		if err := o.Metrics.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	ab := snapshot(policy.NewLRU(2), policy.NewCD(policy.SelectLevel(2), 2))
	ba := snapshot(policy.NewCD(policy.SelectLevel(2), 2), policy.NewLRU(2))
	if ab != ba {
		t.Errorf("metrics depend on run order:\nA then B: %s\nB then A: %s", ab, ba)
	}
}
