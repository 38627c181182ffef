package engine_test

import (
	"maps"
	"testing"

	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/obs"
)

// fourTables runs the table plans of Tables 1–4 on eng.
func fourTables(t *testing.T, eng *engine.Engine) {
	t.Helper()
	for n, gen := range []func(*engine.Engine) error{
		func(e *engine.Engine) error { _, err := experiments.Table1(e); return err },
		func(e *engine.Engine) error { _, err := experiments.Table2(e); return err },
		func(e *engine.Engine) error { _, err := experiments.Table3(e); return err },
		func(e *engine.Engine) error { _, err := experiments.Table4(e); return err },
	} {
		if err := gen(eng); err != nil {
			t.Fatalf("table%d: %v", n+1, err)
		}
	}
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
// so after it they compute nothing, at any -j. An observed engine and a
// cell-mode one skip the plan, and their tables compute what they would
// without it.
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

	for _, c := range []struct {
		name   string
		eng    func() *engine.Engine
		tables func(*testing.T, *engine.Engine)
	}{
		{"observed", func() *engine.Engine {
			return engine.New(4).WithObserver(&obs.Observer{Metrics: obs.NewRegistry()})
		}, fourTables},
		// Cell mode replays every curve point; Table 1 shows the skip.
		{"cell", func() *engine.Engine { return engine.New(4).WithCellMode(true) }, func(t *testing.T, e *engine.Engine) {
			if _, err := experiments.Table1(e); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		eng := c.eng()
		if warm := computations(func() {
			if err := experiments.WarmTables(eng); err != nil {
				t.Fatal(err)
			}
		}); len(warm) != 0 {
			t.Errorf("%s: the program plan computed %d entries, want none", c.name, len(warm))
		}
		got := computations(func() { c.tables(t, eng) })
		want := computations(func() { c.tables(t, c.eng()) })
		if len(got) == 0 || !maps.Equal(got, want) {
			t.Errorf("%s: the table plans computed %d entries after the skipped plan, %d without it", c.name, len(got), len(want))
		}
	}
}
