package engine_test

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/obs"
)

// fourTables runs the table plans of Tables 1–4 on eng and returns
// their rows.
func fourTables(t *testing.T, eng *engine.Engine) []any {
	t.Helper()
	var rows []any
	for n, gen := range []func() (any, error){
		func() (any, error) { return experiments.Table1(eng) },
		func() (any, error) { return experiments.Table2(eng) },
		func() (any, error) { return experiments.Table3(eng) },
		func() (any, error) { return experiments.Table4(eng) },
	} {
		r, err := gen()
		if err != nil {
			t.Fatalf("table%d: %v", n+1, err)
		}
		rows = append(rows, r)
	}
	return rows
}

// computations runs fn and returns how many times each memo key was
// computed meanwhile.
func computations(fn func()) map[engine.Key]int {
	keys, stop := engine.RecordComputations()
	defer stop()
	fn()
	counts := map[engine.Key]int{}
	for _, k := range keys() {
		counts[k]++
	}
	return counts
}

// TestWarmTablesLeavesTablesNothingToCompute: the program plan computes
// exactly the memo entries the four table plans compute on their own,
// so after it they compute nothing, at any -j.
func TestWarmTablesLeavesTablesNothingToCompute(t *testing.T) {
	alone := computations(func() { fourTables(t, engine.New(4)) })
	if len(alone) == 0 {
		t.Fatal("the table plans computed nothing on a fresh engine")
	}
	for _, j := range []int{1, 4} {
		eng := engine.New(j)
		warm := computations(func() {
			if err := experiments.WarmTables(eng); err != nil {
				t.Fatal(err)
			}
		})
		if !maps.Equal(warm, alone) {
			t.Errorf("-j %d: the program plan computed %d entries, the table plans alone %d", j, len(warm), len(alone))
		}
		if after := computations(func() { fourTables(t, eng) }); len(after) != 0 {
			t.Errorf("-j %d: after the program plan the table plans computed %d entries, want none", j, len(after))
		}
	}
}

// flicker is a gate that opens and closes on alternate Open calls.
type flicker struct{ n atomic.Int64 }

func (g *flicker) Open() bool { return g.n.Add(1)%2 == 1 }

// TestObservationChangesNoComputation: whether an engine is observed,
// and whether its gate is open when a run starts, never changes what a
// command computes. `tables` (the program plan, then the four table
// plans) and a standalone Table 2 compute the same memo entries and
// rows on an unobserved engine, an engine observing through a tracer
// and a registry, and one whose gate flickers, in curve and in cell
// mode. Curves and WS windows emit nothing, so the observed stream's
// run events are the CD runs alone, the same in either mode.
func TestObservationChangesNoComputation(t *testing.T) {
	tables := func(t *testing.T, eng *engine.Engine) []any {
		if err := experiments.WarmTables(eng); err != nil {
			t.Fatal(err)
		}
		return fourTables(t, eng)
	}
	table2 := func(t *testing.T, eng *engine.Engine) []any {
		r2, err := experiments.Table2(eng)
		if err != nil {
			t.Fatal(err)
		}
		return []any{r2}
	}
	modes := []bool{false}
	if !testing.Short() {
		modes = append(modes, true) // cell mode replays every curve point
	}
	for _, c := range []struct {
		name   string
		gen    func(*testing.T, *engine.Engine) []any
		cdRuns int
	}{
		{"tables", tables, len(experiments.Table34Variants)},
		// Table 2's window gathering runs the sibling variants' CD runs.
		{"table2", table2, len(experiments.Table2Variants) + 5},
	} {
		var streams [][]obs.Event
		for _, cell := range modes {
			what := fmt.Sprintf("%s cell=%v", c.name, cell)
			run := func(o *obs.Observer) (map[engine.Key]int, []any) {
				var rows []any
				keys := computations(func() { rows = c.gen(t, engine.New(4).WithObserver(o).WithCellMode(cell)) })
				return keys, rows
			}
			keys, rows := run(nil)
			col := &obs.Collector{}
			for _, o := range []*obs.Observer{
				{Tracer: col, Metrics: obs.NewRegistry()},
				{Tracer: &obs.Collector{}, Metrics: obs.NewRegistry(), Gate: &flicker{}},
			} {
				gotKeys, gotRows := run(o)
				if !maps.Equal(gotKeys, keys) {
					t.Errorf("%s, gate %v: %d memo entries computed, %d unobserved", what, o.Gate != nil, len(gotKeys), len(keys))
				}
				if !reflect.DeepEqual(gotRows, rows) {
					t.Errorf("%s, gate %v: rows differ from the unobserved engine's", what, o.Gate != nil)
				}
			}
			var runs []string
			for _, ev := range col.Events {
				if ev.Kind == obs.KindRun {
					runs = append(runs, ev.Label)
				}
			}
			for _, label := range runs {
				if !strings.HasPrefix(label, "CD") {
					t.Errorf("%s: observed stream holds a %q run: %v", what, label, runs)
					break
				}
			}
			if len(runs) != c.cdRuns {
				t.Errorf("%s: observed stream holds %d runs, want %d CD runs: %v", what, len(runs), c.cdRuns, runs)
			}
			streams = append(streams, col.Events)
		}
		if len(streams) == 2 && !reflect.DeepEqual(streams[0], streams[1]) {
			t.Errorf("%s: the observed stream differs between curve and cell mode (%d vs %d events)", c.name, len(streams[0]), len(streams[1]))
		}
	}
}
