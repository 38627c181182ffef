package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

// compiled returns the named workloads' traces from the shared compile
// cache, keyed by name. Call it on the test goroutine, before the plan.
func compiled(t *testing.T, names ...string) map[string]*trace.Trace {
	t.Helper()
	trs := map[string]*trace.Trace{}
	for _, name := range names {
		p, err := workloads.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		if trs[name], err = p.Trace(); err != nil {
			t.Fatal(err)
		}
	}
	return trs
}

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
	k := engine.Key{Kind: "test", Params: "X"}
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
	k := engine.Key{Kind: "test", Params: "ERR"}
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
// and returns the merged stream. The plan mixes memoized CD runs over
// three traces, with a deliberate duplicate.
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
	trs := compiled(t, "MAIN", "FDJAC", "TQL")
	_, err := engine.MapNamed(eng, "", jobs, func(rc *engine.RunCtx, j job) (int, error) {
		set := workloads.Set{Name: fmt.Sprintf("L%d", j.level), Level: j.level}
		r, err := eng.CDRun(rc, trs[j.prog], set, 2)
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

// wsMinEvents runs an observed WSMinST per program and returns the
// minima and the merged event stream.
func wsMinEvents(t *testing.T, workers int, cell bool, progs []string) ([]int, []obs.Event) {
	t.Helper()
	col := &obs.Collector{}
	eng := engine.New(workers).WithObserver(&obs.Observer{Tracer: col}).WithCellMode(cell)
	trs := compiled(t, progs...)
	taus, err := engine.MapNamed(eng, "", progs, func(rc *engine.RunCtx, prog string) (int, error) {
		tau, _, err := eng.WSMinST(rc, trs[prog])
		return tau, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return taus, col.Events
}

// TestObservedWSMinSTReplaysOnce checks that observing the WS minimum
// search does not change it: the search stays unobserved and emits
// exactly one WS run per program, the minimizing window's, with the same
// stream in curve and cell mode.
func TestObservedWSMinSTReplaysOnce(t *testing.T) {
	progs := []string{"MAIN", "TQL"}
	taus, want := wsMinEvents(t, 1, false, progs)
	var runs []string
	for _, ev := range want {
		if ev.Kind == obs.KindRun {
			runs = append(runs, ev.Label)
		}
	}
	plain := engine.New(1)
	trs := compiled(t, progs...)
	for i, prog := range progs {
		tau, _, err := plain.WSMinST(nil, trs[prog])
		if err != nil {
			t.Fatal(err)
		}
		if taus[i] != tau {
			t.Errorf("%s: observed minimum at tau=%d, unobserved at tau=%d", prog, taus[i], tau)
		}
	}
	if len(runs) != len(progs) {
		t.Fatalf("observed WSMinST emitted %d run events, want one per program (%d)", len(runs), len(progs))
	}
	if _, got := wsMinEvents(t, 4, true, progs); !reflect.DeepEqual(got, want) {
		t.Fatalf("cell mode: merged stream differs from curve mode (%d vs %d events)", len(got), len(want))
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
	trs := compiled(t, progs...)
	_, err := engine.MapNamed(eng, "", progs, func(rc *engine.RunCtx, prog string) (int, error) {
		tr := trs[prog]
		curve, err := eng.LRUSweep(rc, tr)
		if err != nil {
			return 0, err
		}
		grid, err := eng.CDDetune(rc, tr, set, 2, []float64{0.5, 1, 2}, experiments.Detune)
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

// TestArtifactsKeyedByTrace compiles HWSCRT at two page sizes; both
// compilations are named HWSCRT. One engine must keep an artifact per
// trace, not per name, and serve a repeated request from its memo.
func TestArtifactsKeyedByTrace(t *testing.T) {
	w, err := workloads.Get("HWSCRT")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(1)
	for _, c := range []struct{ pageSize, v int }{{256, 69}, {512, 37}} {
		p, err := core.CompileSourceOpts(w.Name, w.Source, core.Options{
			Geometry: mem.Geometry{PageSize: c.pageSize},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := p.Trace()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Name != "HWSCRT" {
			t.Fatalf("page size %d: trace named %q, want HWSCRT", c.pageSize, tr.Name)
		}
		curve, err := eng.LRUSweep(nil, tr)
		if err != nil {
			t.Fatal(err)
		}
		if curve.V != c.v {
			t.Errorf("page size %d: curve V = %d, want %d", c.pageSize, curve.V, c.v)
		}
		again, err := eng.LRUSweep(nil, tr)
		if err != nil {
			t.Fatal(err)
		}
		if again != curve {
			t.Errorf("page size %d: second request built a new curve (%p, first %p)", c.pageSize, again, curve)
		}
	}
}
