package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/obs"
)

// TestTable2CurveCellByteIdentical renders Table 2 — the table whose LRU
// and WS columns the sweep plane computes in one traversal each — in
// curve mode and in per-cell mode, sequentially and in parallel, and
// requires all four renderings to be byte-identical: the one-pass
// curves must be indistinguishable from per-cell simulation at the
// output layer, at any -j.
func TestTable2CurveCellByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cell mode replays every curve point; skipped under -short")
	}
	render := func(cell bool, j int) string {
		var buf bytes.Buffer
		if err := runTablesTo(&buf, "table2", engine.New(j).WithCellMode(cell)); err != nil {
			t.Fatalf("cell=%v -j %d: %v", cell, j, err)
		}
		return buf.String()
	}
	curve := render(false, 1)
	if curve == "" {
		t.Fatal("empty table2 rendering")
	}
	for _, c := range []struct {
		cell bool
		j    int
	}{{false, 8}, {true, 1}, {true, 8}} {
		if got := render(c.cell, c.j); got != curve {
			t.Errorf("cell=%v -j %d rendering differs from curve -j 1:\n%s\nvs\n%s", c.cell, c.j, got, curve)
		}
	}
}

// TestTablesByteIdenticalAcrossPlans: `tables`, whose program plan runs
// ahead of the table plans, renders the same at -j 1, 2 and 8 and in
// cell mode. Observed, it prints the same, and its event stream is that
// of the four table plans run alone: the stream holds only CD runs, and
// the program plan requests them in the order the table plans first do.
func TestTablesByteIdenticalAcrossPlans(t *testing.T) {
	render := func(eng *engine.Engine) string {
		var buf bytes.Buffer
		if err := runTablesTo(&buf, "tables", eng); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(engine.New(1))
	for _, j := range []int{2, 8} {
		if got := render(engine.New(j)); got != want {
			t.Errorf("tables -j %d differs from -j 1:\n%s\nvs\n%s", j, got, want)
		}
	}
	if !testing.Short() {
		if got := render(engine.New(8).WithCellMode(true)); got != want {
			t.Errorf("tables -cellmode differs from curve mode:\n%s\nvs\n%s", got, want)
		}
	}

	watched := &obs.Collector{}
	if got := render(engine.New(2).WithObserver(&obs.Observer{Tracer: watched})); got != want {
		t.Errorf("observed tables differ from unobserved:\n%s\nvs\n%s", got, want)
	}
	alone := &obs.Collector{}
	eng := engine.New(2).WithObserver(&obs.Observer{Tracer: alone})
	for n, gen := range []func() error{
		func() error { _, err := experiments.Table1(eng); return err },
		func() error { _, err := experiments.Table2(eng); return err },
		func() error { _, err := experiments.Table3(eng); return err },
		func() error { _, err := experiments.Table4(eng); return err },
	} {
		if err := gen(); err != nil {
			t.Fatalf("table%d: %v", n+1, err)
		}
	}
	if len(watched.Events) == 0 || !reflect.DeepEqual(watched.Events, alone.Events) {
		t.Errorf("tables wrote %d events, the four table plans alone %d: the streams differ", len(watched.Events), len(alone.Events))
	}
}

// TestDetuneByteIdenticalAcrossJ: the detune study renders the same
// whether its factor grids run one at a time or four at once.
func TestDetuneByteIdenticalAcrossJ(t *testing.T) {
	render := func(j int) string {
		rows, err := experiments.DetuneStudy(engine.New(j), nil, nil)
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		return experiments.RenderDetune(rows)
	}
	seq, par := render(1), render(4)
	if seq == "" || seq != par {
		t.Errorf("detune renderings differ between -j 1 and -j 4:\n%s\nvs\n%s", seq, par)
	}
}

func TestCmdSweepCurveModes(t *testing.T) {
	for _, args := range [][]string{
		{"HWSCRT", "-policy", "lru", "-grid", "1,2,4,8"},
		{"HWSCRT", "-policy", "ws", "-grid", "1,10,100", "-json"},
		{"HWSCRT", "-policy", "fifo", "-grid", "2,4"},
		{"HWSCRT", "-policy", "cd", "-level", "2", "-grid", "0.5,1.0,2.0"},
	} {
		if err := runCommand("sweep", args); err != nil {
			t.Errorf("sweep %v: %v", args, err)
		}
	}
	if err := runCommand("sweep", []string{"HWSCRT", "-policy", "bogus"}); err == nil {
		t.Error("expected unknown-policy error")
	}
}

// TestCmdSweepStreamedTrace: sweep recognizes a trace file by its
// content, whatever its name, and streams its curves; the CD curve needs
// the program, which the file does not hold.
func TestCmdSweepStreamedTrace(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.cdt3", "t.trc"} {
		out := filepath.Join(dir, name)
		if err := runCommand("trace", []string{"HWSCRT", "-o", out}); err != nil {
			t.Fatal(err)
		}
		if err := runCommand("sweep", []string{out, "-policy", "lru", "-grid", "1,4,16"}); err != nil {
			t.Errorf("%s: lru curve on streamed trace: %v", name, err)
		}
		if err := runCommand("sweep", []string{out, "-policy", "ws"}); err != nil {
			t.Errorf("%s: ws curve on streamed trace: %v", name, err)
		}
		if err := runCommand("sweep", []string{out, "-policy", "cd"}); err == nil || !strings.Contains(err.Error(), "needs a program") {
			t.Errorf("sweep %s -policy cd: err = %v, want one saying it needs a program", name, err)
		}
	}
}
