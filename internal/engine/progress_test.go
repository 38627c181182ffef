package engine_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cdmm/internal/engine"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/vmsim"
)

// snapshotRun finds one run's snapshot by id.
func snapshotRun(t *testing.T, p *engine.Progress, id int) engine.RunSnapshot {
	t.Helper()
	rs, ok := p.Run(id)
	if !ok {
		t.Fatalf("progress has no run %d", id)
	}
	return rs
}

func TestProgressPlanLifecycle(t *testing.T) {
	p := engine.NewProgress()
	eng := engine.New(4).WithProgress(p)

	items := []string{"CONDUCT", "MAIN", "TQL"}
	_, err := engine.MapNamed(eng, "table-test", items, func(rc *engine.RunCtx, prog string) (vmsim.Result, error) {
		c, err := eng.Compiled(rc, prog)
		if err != nil {
			return vmsim.Result{}, err
		}
		rc.Describe(prog, "LRU")
		res := vmsim.RunObserved(c.Trace.RefsOnly(), policy.NewLRU(16), rc.Obs)
		rc.Report(res)
		return res, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	s := p.Snapshot()
	if len(s.Plans) != 1 || s.Plans[0].Label != "table-test" || s.Plans[0].Total != 3 {
		t.Fatalf("plan snapshot = %+v", s.Plans)
	}
	if !s.Plans[0].Finished {
		t.Error("plan not marked finished")
	}
	if !s.Idle {
		t.Error("tracker not idle after plan completion")
	}
	if s.Counts["done"] != 3 {
		t.Errorf("counts = %v, want 3 done", s.Counts)
	}
	for i, prog := range items {
		rs := snapshotRun(t, p, i)
		if rs.State != "done" {
			t.Errorf("run %d state = %s", i, rs.State)
		}
		if rs.Label != prog || rs.Policy != "LRU" {
			t.Errorf("run %d described as %q/%q, want %q/LRU", i, rs.Label, rs.Policy, prog)
		}
		if rs.Faults <= 0 || rs.Refs <= 0 || rs.Mem <= 0 {
			t.Errorf("run %d missing reported aggregates: %+v", i, rs)
		}
		if rs.Done == 0 || rs.Done != rs.Total {
			t.Errorf("run %d live position %d/%d, want terminal done==total", i, rs.Done, rs.Total)
		}
		if rs.VirtualTime <= 0 {
			t.Errorf("run %d virtual time = %d", i, rs.VirtualTime)
		}
	}
	if s.Seq <= 0 {
		t.Error("seq never advanced")
	}
}

func TestProgressDefaultPlanLabelAndResultDetection(t *testing.T) {
	p := engine.NewProgress()
	eng := engine.New(1).WithProgress(p)
	// Run bodies returning vmsim.Result are picked up without Report.
	_, err := engine.MapNamed(eng, "", []int{0}, func(rc *engine.RunCtx, _ int) (vmsim.Result, error) {
		return vmsim.Result{Policy: "CD", Refs: 10, Faults: 2, MemSum: 40, Degraded: true, DegradedReason: "test"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if len(s.Plans) != 1 || !strings.HasPrefix(s.Plans[0].Label, "plan-") {
		t.Fatalf("unnamed plan label = %+v", s.Plans)
	}
	rs := snapshotRun(t, p, 0)
	if rs.State != "degraded" {
		t.Errorf("degraded result tracked as %q, want degraded", rs.State)
	}
	if rs.DegradedReason != "test" || rs.Policy != "CD" || rs.Faults != 2 {
		t.Errorf("run snapshot = %+v", rs)
	}
	if s.Counts["degraded"] != 1 {
		t.Errorf("counts = %v", s.Counts)
	}
}

func TestProgressRunFailure(t *testing.T) {
	p := engine.NewProgress()
	eng := engine.New(2).WithProgress(p)

	_, err := engine.MapNamed(eng, "failing", []int{0, 1}, func(rc *engine.RunCtx, i int) (int, error) {
		if i == 0 {
			return i, nil
		}
		return 0, errors.New("hard failure")
	})
	if err == nil {
		t.Fatal("want plan error from run 1")
	}

	if rs0 := snapshotRun(t, p, 0); rs0.State != "done" {
		t.Errorf("healthy run = %s, want done", rs0.State)
	}
	rs1 := snapshotRun(t, p, 1)
	if rs1.State != "failed" || !strings.Contains(rs1.Err, "hard failure") {
		t.Errorf("failed run = %s err=%q", rs1.State, rs1.Err)
	}
	s := p.Snapshot()
	if !s.Idle || s.Counts["failed"] != 1 || s.Counts["done"] != 1 {
		t.Errorf("snapshot = idle=%v counts=%v", s.Idle, s.Counts)
	}
}

// TestProgressBehindDisabledObserver checks the no-client telemetry
// stance: the engine's base observer is gated closed, runs take the
// un-instrumented fast path, and live position still flows into the
// tracker through the chunked progress callback.
type closedGate struct{}

func (closedGate) Open() bool { return false }

func TestProgressBehindDisabledObserver(t *testing.T) {
	p := engine.NewProgress()
	col := &obs.Collector{}
	eng := engine.New(1).
		WithObserver(&obs.Observer{Tracer: col, Metrics: obs.NewRegistry(), Gate: closedGate{}}).
		WithProgress(p)

	results, err := engine.MapNamed(eng, "gated", []string{"CONDUCT"}, func(rc *engine.RunCtx, prog string) (vmsim.Result, error) {
		c, err := eng.Compiled(rc, prog)
		if err != nil {
			return vmsim.Result{}, err
		}
		return vmsim.RunObserved(c.Trace.RefsOnly(), policy.NewLRU(32), rc.Obs), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Events) != 0 {
		t.Errorf("closed gate leaked %d events", len(col.Events))
	}
	rs := snapshotRun(t, p, 0)
	if rs.Done == 0 || rs.Done != rs.Total {
		t.Errorf("gated run position %d/%d, want terminal done==total", rs.Done, rs.Total)
	}
	if rs.VirtualTime != results[0].VirtualTime {
		t.Errorf("tracked vt %d != result vt %d", rs.VirtualTime, results[0].VirtualTime)
	}
}

// TestConcurrentPlansKeepMemoEventsWithComputingPlan is the regression
// test for the concurrent-Map stream hazard: before plan serialization,
// a plan that merely *waited* on a memoized computation could merge
// first and steal the computation's buffered events into its own
// stream, so the byte layout depended on cross-plan timing. Now a plan
// holds the plan lock end-to-end while a tracer is attached: plan B
// cannot even start until plan A (which computed the shared artifact)
// has merged, so the shared events deterministically sit in A's block
// and each plan's block is contiguous.
func TestConcurrentPlansKeepMemoEventsWithComputingPlan(t *testing.T) {
	col := &obs.Collector{}
	eng := engine.New(2).WithObserver(&obs.Observer{Tracer: col})
	key := engine.Key{Kind: "test-shared"}

	computed := make(chan struct{})
	done := make(chan error, 1)

	go func() {
		_, err := engine.MapNamed(eng, "A", []int{0}, func(rc *engine.RunCtx, _ int) (int, error) {
			_, merr := eng.Memo(rc, key, func(_ *engine.RunCtx, o *obs.Observer) (any, error) {
				o.Emit(obs.Event{Kind: obs.KindRun, Label: "shared"})
				return 1, nil
			})
			close(computed)
			// Keep plan A in flight long enough for plan B to request the
			// (already computed) artifact and try to finish first.
			time.Sleep(50 * time.Millisecond)
			rc.Obs.Emit(obs.Event{Kind: obs.KindRun, Label: "A"})
			return 0, merr
		})
		done <- err
	}()

	<-computed
	_, err := engine.MapNamed(eng, "B", []int{0}, func(rc *engine.RunCtx, _ int) (int, error) {
		if _, merr := eng.Memo(rc, key, func(_ *engine.RunCtx, o *obs.Observer) (any, error) {
			t.Error("memoized computation ran twice")
			return nil, nil
		}); merr != nil {
			return 0, merr
		}
		rc.Obs.Emit(obs.Event{Kind: obs.KindRun, Label: "B"})
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if aerr := <-done; aerr != nil {
		t.Fatal(aerr)
	}

	var labels []string
	for _, ev := range col.Events {
		labels = append(labels, ev.Label)
	}
	want := []string{"shared", "A", "B"}
	if len(labels) != len(want) {
		t.Fatalf("stream = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("stream = %v, want %v (shared memo events must stay with the computing plan)", labels, want)
		}
	}
}
