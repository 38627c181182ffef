package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"cdmm/internal/engine"
	"cdmm/internal/experiments"
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

// TestDetuneCurveCellByteIdentical: the detune study's lockstep one-pass
// factor grid must render identically to one replay per factor.
func TestDetuneCurveCellByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cell mode replays every factor; skipped under -short")
	}
	render := func(cell bool) string {
		rows, err := experiments.DetuneStudy(engine.New(2).WithCellMode(cell), nil, nil)
		if err != nil {
			t.Fatalf("cell=%v: %v", cell, err)
		}
		return experiments.RenderDetune(rows)
	}
	curve, cellR := render(false), render(true)
	if curve == "" || curve != cellR {
		t.Errorf("detune renderings differ:\n%s\nvs\n%s", curve, cellR)
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
// content, whatever its name, and streams its curves; the summary and
// the CD curve need the program, which the file does not hold.
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
		for _, args := range [][]string{{out}, {out, "-policy", "cd"}} {
			if err := runCommand("sweep", args); err == nil || !strings.Contains(err.Error(), "needs a program") {
				t.Errorf("sweep %v: err = %v, want one saying it needs a program", args, err)
			}
		}
	}
}
