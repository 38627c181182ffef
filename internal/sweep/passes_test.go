package sweep_test

import (
	"fmt"
	"testing"

	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/sweep"
)

// renderTables renders Tables 1–4 (table n at index n-1) on eng, leaving
// out every table not in which.
func renderTables(t *testing.T, eng *engine.Engine, which ...int) []string {
	t.Helper()
	gens := []func() (string, error){
		func() (string, error) { r, err := experiments.Table1(eng); return experiments.RenderTable1(r), err },
		func() (string, error) { r, err := experiments.Table2(eng); return experiments.RenderTable2(r), err },
		func() (string, error) { r, err := experiments.Table3(eng); return experiments.RenderTable3(r), err },
		func() (string, error) { r, err := experiments.Table4(eng); return experiments.RenderTable4(r), err },
	}
	out := make([]string, len(gens))
	for _, n := range which {
		s, err := gens[n-1]()
		if err != nil {
			t.Fatalf("table%d: %v", n, err)
		}
		out[n-1] = s
	}
	return out
}

// TestTablesOneGridPassPerProgram counts WS grid traversals. Table 2's
// ladder pass per program also computes the windows Tables 3 and 4 read,
// so Tables 1–4 walk each of the nine programs once (HWSCRT, which has
// no Table 2 row, in Table 3), with or without the program plan that
// `cdmm tables` runs first; Table 3 alone walks each program once for
// its variants' windows only, and Table 4 then finds every window in
// the store. Every rendering equals the per-cell oracle's.
func TestTablesOneGridPassPerProgram(t *testing.T) {
	var cell []string
	if !testing.Short() {
		cell = renderTables(t, engine.New(0).WithCellMode(true), 1, 2, 3, 4)
	}
	sameAsCell := func(what string, got []string, tables ...int) {
		t.Helper()
		for _, n := range tables {
			if cell != nil && got[n-1] != cell[n-1] {
				t.Errorf("%s: table%d differs from the per-cell rendering:\n%s\nvs\n%s", what, n, got[n-1], cell[n-1])
			}
		}
	}

	for _, j := range []int{1, 4} {
		for _, warm := range []bool{false, true} {
			eng := engine.New(j)
			passes, stop := sweep.RecordPasses()
			if warm {
				if err := experiments.WarmTables(eng); err != nil {
					t.Fatal(err)
				}
			}
			got := renderTables(t, eng, 1, 2, 3, 4)
			stop()
			if n := len(passes()); n != 9 {
				t.Errorf("-j %d, program plan %v: Tables 1-4 made %d grid traversals, want 9 (one per program)", j, warm, n)
			}
			sameAsCell(fmt.Sprintf("tables -j %d, program plan %v", j, warm), got, 1, 2, 3, 4)
		}
	}

	perProgram := map[string]int{}
	for _, v := range experiments.Table34Variants {
		perProgram[v.Program]++
	}
	maxWindows := 0
	for _, n := range perProgram {
		maxWindows = max(maxWindows, 2*n)
	}
	eng := engine.New(4)
	passes, stop := sweep.RecordPasses()
	t3 := renderTables(t, eng, 3)
	stop()
	if ps := passes(); len(ps) > len(perProgram) {
		t.Errorf("Table 3 alone made %d grid traversals, want at most %d", len(ps), len(perProgram))
	} else {
		for _, p := range ps {
			if len(p.Grid) > maxWindows {
				t.Errorf("Table 3 alone walked %d windows in one pass, more than two per variant: it holds a ladder", len(p.Grid))
			}
		}
	}
	passes, stop = sweep.RecordPasses()
	t4 := renderTables(t, eng, 4)
	stop()
	if n := len(passes()); n != 0 {
		t.Errorf("Table 4 after Table 3 made %d grid traversals, want 0", n)
	}
	sameAsCell("table3 then table4", []string{"", "", t3[2], t4[3]}, 3, 4)
}
