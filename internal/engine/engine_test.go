package engine_test

import (
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
		out, err := engine.MapNamed(eng, "", items, func(_ *engine.RunCtx, i int) (int, error) {
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
	idx, err := engine.MapNamed(eng, "", []string{"a", "b", "c"}, func(rc *engine.RunCtx, _ string) (int, error) {
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
	out, err := engine.MapNamed(eng, "", make([]struct{}, 32), func(rc *engine.RunCtx, _ struct{}) (int, error) {
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
}

func TestMemoErrorShared(t *testing.T) {
	eng := engine.New(4)
	boom := errors.New("boom")
	k := engine.Key{Kind: "test", Program: "ERR"}
	_, err := engine.MapNamed(eng, "", make([]struct{}, 8), func(rc *engine.RunCtx, _ struct{}) (int, error) {
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
		_, err := engine.MapNamed(eng, "", items, func(_ *engine.RunCtx, i int) (int, error) {
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
	_, err := engine.MapNamed(eng, "", jobs, func(rc *engine.RunCtx, j job) (int, error) {
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
	out, err := engine.MapNamed(eng, "", make([]struct{}, 8), func(rc *engine.RunCtx, _ struct{}) (*workloads.Compiled, error) {
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
	_, err := engine.MapNamed(eng, "", progs, func(rc *engine.RunCtx, prog string) (int, error) {
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
