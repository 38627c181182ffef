package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/obs"
	"cdmm/internal/workloads"
)

func TestMapDeclarationOrder(t *testing.T) {
	items := make([]int, 16)
	for i := range items {
		items[i] = i
	}
	run := func(workers int) []int {
		eng := engine.New(workers)
		out, err := engine.Map(eng, items, func(_ *engine.RunCtx, i int) (int, error) {
			// Finish in roughly reverse declaration order to catch any
			// completion-order gathering.
			time.Sleep(time.Duration(len(items)-i) * time.Millisecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := run(1)
	par := run(8)
	for i := range items {
		if seq[i] != i*i {
			t.Fatalf("sequential result[%d] = %d, want %d", i, seq[i], i*i)
		}
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel results out of declaration order: %v vs %v", par, seq)
	}
}

func TestMapRunCtxIndex(t *testing.T) {
	eng := engine.New(4)
	idx, err := engine.Map(eng, []string{"a", "b", "c"}, func(rc *engine.RunCtx, _ string) (int, error) {
		return rc.Index, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, []int{0, 1, 2}) {
		t.Errorf("RunCtx indexes = %v", idx)
	}
}

func TestMemoSingleflight(t *testing.T) {
	eng := engine.New(8)
	var computed atomic.Int32
	k := engine.Key{Kind: "test", Program: "X"}
	out, err := engine.Map(eng, make([]struct{}, 32), func(rc *engine.RunCtx, _ struct{}) (int, error) {
		v, err := eng.Memo(rc, k, func(*engine.RunCtx, *obs.Observer) (any, error) {
			computed.Add(1)
			time.Sleep(5 * time.Millisecond) // widen the race window
			return 42, nil
		})
		if err != nil {
			return 0, err
		}
		return v.(int), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := computed.Load(); n != 1 {
		t.Errorf("memoized computation ran %d times, want 1", n)
	}
	for i, v := range out {
		if v != 42 {
			t.Errorf("requester %d got %d, want 42", i, v)
		}
	}
	// Forget forces a recomputation.
	eng.Forget(k)
	if _, err := eng.Memo(nil, k, func(*engine.RunCtx, *obs.Observer) (any, error) {
		computed.Add(1)
		return 42, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := computed.Load(); n != 2 {
		t.Errorf("computation count after Forget = %d, want 2", n)
	}
}

func TestMemoErrorShared(t *testing.T) {
	eng := engine.New(4)
	boom := errors.New("boom")
	k := engine.Key{Kind: "test", Program: "ERR"}
	_, err := engine.Map(eng, make([]struct{}, 8), func(rc *engine.RunCtx, _ struct{}) (int, error) {
		_, err := eng.Memo(rc, k, func(*engine.RunCtx, *obs.Observer) (any, error) {
			return nil, boom
		})
		return 0, err
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the memoized error", err)
	}
}

func TestMapErrorAggregationDeterministic(t *testing.T) {
	items := make([]int, 12)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 8} {
		eng := engine.New(workers)
		_, err := engine.Map(eng, items, func(_ *engine.RunCtx, i int) (int, error) {
			switch i {
			case 2:
				time.Sleep(20 * time.Millisecond) // let a later error finish first
				return 0, fmt.Errorf("err-%d", i)
			case 5:
				return 0, fmt.Errorf("err-%d", i)
			}
			return i, nil
		})
		var plan *engine.PlanError
		if !errors.As(err, &plan) {
			t.Fatalf("workers=%d: err = %v (%T), want *engine.PlanError", workers, err, err)
		}
		if len(plan.Runs) != 2 || plan.Runs[0].Index != 2 || plan.Runs[1].Index != 5 {
			t.Errorf("workers=%d: failed runs = %v, want indexes [2 5]", workers, plan.Runs)
		}
		if want := "run 2: err-2 (and 1 more failed)"; err.Error() != want {
			t.Errorf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
}

func TestMapContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already done: every run must fail with ctx.Err()
	eng := engine.New(4).WithContext(ctx)
	var ran atomic.Int32
	_, err := engine.Map(eng, make([]int, 8), func(rc *engine.RunCtx, _ int) (int, error) {
		ran.Add(1)
		return 0, rc.Ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d runs executed under a done context, want 0", n)
	}
	var plan *engine.PlanError
	if !errors.As(err, &plan) || len(plan.Runs) != 8 {
		t.Errorf("want a PlanError covering all 8 runs, got %v", err)
	}
}

func TestMapRetryTransient(t *testing.T) {
	var attempts atomic.Int32
	eng := engine.New(1).WithRetry(3, time.Microsecond)
	out, err := engine.Map(eng, []int{7}, func(_ *engine.RunCtx, v int) (int, error) {
		if attempts.Add(1) < 3 {
			return 0, engine.Transient(fmt.Errorf("flaky"))
		}
		return v, nil
	})
	if err != nil {
		t.Fatalf("err = %v, want success after retries", err)
	}
	if out[0] != 7 || attempts.Load() != 3 {
		t.Errorf("out=%v attempts=%d, want [7] after 3 attempts", out, attempts.Load())
	}

	// Non-transient errors must not be retried.
	attempts.Store(0)
	_, err = engine.Map(eng, []int{1}, func(_ *engine.RunCtx, _ int) (int, error) {
		attempts.Add(1)
		return 0, fmt.Errorf("fatal")
	})
	if err == nil || attempts.Load() != 1 {
		t.Errorf("non-transient error retried: attempts=%d err=%v", attempts.Load(), err)
	}

	// A transient error that never clears exhausts the budget.
	attempts.Store(0)
	_, err = engine.Map(eng, []int{1}, func(_ *engine.RunCtx, _ int) (int, error) {
		attempts.Add(1)
		return 0, engine.Transient(fmt.Errorf("always"))
	})
	if err == nil || attempts.Load() != 4 {
		t.Errorf("want 4 attempts (1 + 3 retries) then failure, got attempts=%d err=%v", attempts.Load(), err)
	}
	if !engine.IsTransient(err) {
		t.Errorf("aggregated error should still unwrap to the transient cause: %v", err)
	}
}

func TestMapRetryDiscardsFailedAttemptEvents(t *testing.T) {
	col := &obs.Collector{}
	eng := engine.New(1).WithObserver(&obs.Observer{Tracer: col}).WithRetry(2, 0)
	attempt := 0
	_, err := engine.Map(eng, []int{0}, func(rc *engine.RunCtx, _ int) (int, error) {
		attempt++
		rc.Obs.Emit(obs.Event{Kind: "test", Label: fmt.Sprintf("attempt-%d", attempt)})
		if attempt < 2 {
			return 0, engine.Transient(fmt.Errorf("flaky"))
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Events) != 1 || col.Events[0].Label != "attempt-2" {
		t.Errorf("merged events = %v, want only the final attempt's", col.Events)
	}
}

// planEvents executes a fixed run plan with an event collector attached
// and returns the merged stream. The plan mixes memoized CD runs (with a
// deliberate duplicate) and a compile prerequisite.
func planEvents(t *testing.T, workers int) []obs.Event {
	t.Helper()
	col := &obs.Collector{}
	eng := engine.New(workers).WithObserver(&obs.Observer{Tracer: col})
	type job struct {
		prog  string
		level int
	}
	jobs := []job{
		{"MAIN", 1}, {"MAIN", 2}, {"FDJAC", 1}, {"TQL", 1},
		{"MAIN", 2}, // duplicate: its events must flush exactly once
		{"FDJAC", 2},
	}
	_, err := engine.Map(eng, jobs, func(rc *engine.RunCtx, j job) (int, error) {
		set := workloads.Set{Name: fmt.Sprintf("L%d", j.level), Level: j.level}
		r, err := eng.CDRun(rc, j.prog, set, 2)
		if err != nil {
			return 0, err
		}
		return r.Faults, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return col.Events
}

func TestEventMergeDeterministic(t *testing.T) {
	want := planEvents(t, 1)
	if len(want) == 0 {
		t.Fatal("sequential plan emitted no events")
	}
	for try := 0; try < 3; try++ {
		got := planEvents(t, 8)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("try %d: parallel event stream differs from sequential (%d vs %d events)",
				try, len(got), len(want))
		}
	}
}

func TestCompiledSharedAcrossRuns(t *testing.T) {
	eng := engine.New(4)
	out, err := engine.Map(eng, make([]struct{}, 8), func(rc *engine.RunCtx, _ struct{}) (*workloads.Compiled, error) {
		return eng.Compiled(rc, "MAIN")
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out); i++ {
		if out[i] != out[0] {
			t.Fatal("Compiled returned different pointers for the same program")
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := engine.New(0).Workers(); w < 1 {
		t.Errorf("New(0).Workers() = %d", w)
	}
	if w := engine.New(3).Workers(); w != 3 {
		t.Errorf("New(3).Workers() = %d", w)
	}
}

// sweepPlanEvents runs LRUSweep and CDDetune over four programs on an
// engine with an explicit tracer observer and returns the merged event
// stream. Cell mode replays every curve point inside memo computations
// that run concurrently at Workers > 1; their events must reach the
// engine's observer only through the deterministic merge.
func sweepPlanEvents(t *testing.T, workers int, cell bool) []obs.Event {
	t.Helper()
	col := &obs.Collector{}
	eng := engine.New(workers).WithObserver(&obs.Observer{Tracer: col}).WithCellMode(cell)
	progs := []string{"APPROX", "HWSCRT", "TQL", "HYBRJ"}
	set := workloads.Set{Name: "L1", Level: 1}
	_, err := engine.Map(eng, progs, func(rc *engine.RunCtx, prog string) (int, error) {
		curve, err := eng.LRUSweep(rc, prog)
		if err != nil {
			return 0, err
		}
		grid, err := eng.CDDetune(rc, prog, set, 2, []float64{0.5, 1, 2}, experiments.Detune)
		if err != nil {
			return 0, err
		}
		return curve.Faults(1) + grid[0].Faults, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return col.Events
}

func TestCellModeObservedStreamDeterministic(t *testing.T) {
	want := sweepPlanEvents(t, 1, false)
	if len(want) == 0 {
		t.Fatal("curve-mode plan emitted no events")
	}
	for _, workers := range []int{1, 4} {
		if got := sweepPlanEvents(t, workers, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("cell mode at Workers=%d: merged stream differs from curve mode (%d vs %d events)",
				workers, len(got), len(want))
		}
	}
}
