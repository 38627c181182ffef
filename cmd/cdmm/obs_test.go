package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/vmsim"
)

// TestCmdSimEventsMatchResult is the acceptance check for the event
// trace: `cdmm sim HWSCRT -policy cd -events out.jsonl` must write valid
// JSONL whose replayed aggregates (fault count, mean resident set) equal
// the simulation result exactly.
func TestCmdSimEventsMatchResult(t *testing.T) {
	dir := t.TempDir()
	ev := filepath.Join(dir, "out.jsonl")
	met := filepath.Join(dir, "metrics.json")
	err := runCommand("sim", []string{"HWSCRT", "-policy", "cd", "-level", "2", "-events", ev, "-metrics", met})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(ev)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatalf("event file is not valid JSONL: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events written")
	}
	refs, faults, memSum := obs.Replay(events)

	// Reference run of the same simulation, un-instrumented.
	p, err := loadProgram("HWSCRT")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	res := vmsim.Run(tr, policy.NewCD(policy.SelectLevel(2), 2))
	if refs != res.Refs || faults != res.Faults {
		t.Errorf("replayed refs/faults = %d/%d, result %d/%d", refs, faults, res.Refs, res.Faults)
	}
	if mean := memSum / float64(refs); mean != res.MEM() {
		t.Errorf("replayed mean resident = %v, result %v", mean, res.MEM())
	}

	raw, err := os.ReadFile(met)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if snap.Counters["faults"] != int64(res.Faults) {
		t.Errorf("metrics faults = %d, result %d", snap.Counters["faults"], res.Faults)
	}
}

func TestCmdSimProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	err := runCommand("sim", []string{"HWSCRT", "-policy", "lru", "-m", "16", "-cpuprofile", cpu, "-memprofile", heap})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, heap} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", path, err)
		}
	}
}

// TestCmdFailedActivationLeavesNoFiles: when -cpuprofile cannot be
// created, the command fails before it runs, with the -events sink it
// opened first closed again and its file removed.
func TestCmdFailedActivationLeavesNoFiles(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "x.jsonl")
	args := []string{"-events", events, "-cpuprofile", filepath.Join(dir, "missing", "x.pprof")}
	if err := runCommand("sim", append([]string{"MAIN"}, args...)); err == nil {
		t.Fatal("sim with an uncreatable -cpuprofile succeeded")
	}
	if _, err := os.Stat(events); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed activation left the -events file behind (stat: %v)", err)
	}
	set := flag.NewFlagSet("sim", flag.ContinueOnError)
	of := registerObsFlags(set)
	if err := set.Parse(args); err != nil {
		t.Fatal(err)
	}
	if _, err := of.activate(); err == nil {
		t.Fatal("activate with an uncreatable -cpuprofile succeeded")
	}
	if of.sink != nil || of.observer != nil {
		t.Error("failed activation left its -events sink open")
	}
}

func TestCmdReplayEvents(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "t.trc")
	if err := runCommand("trace", []string{"HWSCRT", "-o", trc}); err != nil {
		t.Fatal(err)
	}
	ev := filepath.Join(dir, "replay.jsonl")
	if err := runCommand("sim", []string{trc, "-policy", "ws", "-tau", "300", "-events", ev}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ev)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil || len(events) == 0 {
		t.Fatalf("sim of a trace file wrote no usable events: %v (%d events)", err, len(events))
	}
}

// TestCmdReportObsFlags: an observed report prints what an unobserved
// one prints, and its -events and -metrics files are byte-identical at
// -j 1 and -j 8. The stream holds the CD-levels and fault-timeline runs.
func TestCmdReportObsFlags(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	plain := captureStdout(t, func() error { return runCommand("report", []string{"HWSCRT", "-j", "1"}) })
	for _, j := range []string{"1", "8"} {
		out := captureStdout(t, func() error {
			return runCommand("report", []string{"HWSCRT", "-j", j, "-events", file(j + ".jsonl"), "-metrics", file(j + ".json")})
		})
		if out != plain {
			t.Errorf("report -j %s -events -metrics printed\n%s\nwant the unobserved\n%s", j, out, plain)
		}
	}
	for _, ext := range []string{".jsonl", ".json"} {
		seq, err := os.ReadFile(file("1" + ext))
		if err != nil {
			t.Fatal(err)
		}
		par, err := os.ReadFile(file("8" + ext))
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) == 0 || !bytes.Equal(seq, par) {
			t.Errorf("%s files: %d bytes at -j 1, %d at -j 8, want the same non-empty bytes", ext, len(seq), len(par))
		}
		if n := bytes.Count(seq, []byte(`"ev":"run"`)); ext == ".jsonl" && n != 7 {
			t.Errorf("event stream holds %d runs, want 7: HWSCRT's 4 CD levels and 3 timeline rows", n)
		}
	}
	if err := runCommand("report", []string{}); err == nil {
		t.Error("expected missing-argument error")
	}
}

func TestCmdTablesObsFlags(t *testing.T) {
	dir := t.TempDir()
	ev := filepath.Join(dir, "t1.jsonl")
	if err := runCommand("table1", []string{"-events", ev}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(ev); err != nil || fi.Size() == 0 {
		t.Errorf("table1 event file missing or empty: %v", err)
	}
}

// TestCmdTablesEventsDeterministicAcrossJ regenerates Table 1 with the
// JSONL event trace enabled at -j 1 and -j 8 and requires the two files
// to be byte-identical: the engine buffers per-run events and merges
// them in declaration order, so parallelism never reorders the stream.
func TestCmdTablesEventsDeterministicAcrossJ(t *testing.T) {
	dir := t.TempDir()
	seq := filepath.Join(dir, "seq.jsonl")
	par := filepath.Join(dir, "par.jsonl")
	if err := runCommand("table1", []string{"-j", "1", "-events", seq}); err != nil {
		t.Fatal(err)
	}
	if err := runCommand("table1", []string{"-j", "8", "-events", par}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no events written")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("event streams differ between -j 1 (%d bytes) and -j 8 (%d bytes)", len(a), len(b))
	}
}
