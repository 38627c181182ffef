package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadProgramWorkload(t *testing.T) {
	p, err := loadProgram("MAIN")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "MAIN" {
		t.Errorf("name = %q", p.Name)
	}
}

func TestLoadProgramFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.f")
	src := "PROGRAM TOY\nDIMENSION V(64)\nDO I = 1, 64\nV(I) = 1.0\nEND DO\nEND\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := loadProgram(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "TOY" {
		t.Errorf("name = %q, want TOY", p.Name)
	}
	if p.V() != 1 {
		t.Errorf("V = %d, want 1", p.V())
	}
}

func TestLoadProgramMissing(t *testing.T) {
	if _, err := loadProgram("definitely-not-a-thing"); err == nil {
		t.Error("expected error")
	}
}

func TestWithProgramRequiresArg(t *testing.T) {
	err := withProgram(nil, nil)
	if err == nil {
		t.Error("expected missing-argument error")
	}
}

func TestCmdSimPolicies(t *testing.T) {
	for _, pol := range []string{"cd", "lru", "fifo", "ws", "opt"} {
		if err := cmdSim([]string{"HWSCRT", "-policy", pol, "-m", "16", "-tau", "300", "-level", "2"}); err != nil {
			t.Errorf("sim %s: %v", pol, err)
		}
	}
	if err := cmdSim([]string{"HWSCRT", "-policy", "bogus"}); err == nil {
		t.Error("expected unknown-policy error")
	}
}

func TestCmdTraceAndReplay(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.trc")
	if err := cmdTrace([]string{"HWSCRT", "-o", out}); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(out); err != nil || !strings.HasPrefix(string(raw), "CDT3") {
		t.Fatalf("trace file missing or not CDT3: %v", err)
	}
	if err := cmdReplay([]string{out, "-policy", "cd", "-level", "2"}); err != nil {
		t.Errorf("replay: %v", err)
	}
	if err := cmdReplay([]string{out, "-policy", "ws", "-tau", "200"}); err != nil {
		t.Errorf("replay ws: %v", err)
	}
	if err := cmdReplay([]string{filepath.Join(dir, "missing.trc")}); err == nil {
		t.Error("expected error for missing trace file")
	}
}

// TestCmdRejectsHostileTraces: CDT3 files whose header totals dwarf
// their bodies (2^42 events declared, none present; 2^40 distinct pages
// declared, one reference present) fail every trace-reading command with
// an error instead of sizing memory from the header.
func TestCmdRejectsHostileTraces(t *testing.T) {
	dir := t.TempDir()
	for name, hexBytes := range map[string]string{
		"events.cdt3":   "434454330158008080808080800100000100000000",
		"distinct.cdt3": "43445433015800808080808020808080808020808080808020feffffff0f00000001010000",
	} {
		raw, err := hex.DecodeString(hexBytes)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, pol := range []string{"lru", "ws", "cd", "opt"} {
			if err := cmdReplay([]string{path, "-policy", pol}); err == nil {
				t.Errorf("%s: replay -policy %s succeeded", name, pol)
			}
		}
		if err := cmdSweep([]string{path, "-policy", "lru"}); err == nil {
			t.Errorf("%s: sweep succeeded", name)
		}
		if err := cmdConvert([]string{path}); err == nil {
			t.Errorf("%s: convert succeeded", name)
		}
	}
}

// TestCmdRejectsHostilePrograms checks that programs declaring more array
// elements than mem.MaxElems fail with an error naming the array and the
// limit, in every command that compiles a program, instead of the
// interpreter trying to allocate their storage.
func TestCmdRejectsHostilePrograms(t *testing.T) {
	dir := t.TempDir()
	for i, dims := range []string{
		"A(2000000000)",
		"A(2000000000), B(2000000000)",
		"A(100000,100000)",
		"A(3000000000,3000000000)",
		"A(4000000000000,4000000)",
		"A(70000000000000000)",
	} {
		path := filepath.Join(dir, fmt.Sprintf("hostile%d.f", i))
		src := "PROGRAM H\nDIMENSION " + dims + "\nEND\n"
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, cmd := range []string{"compile", "trace", "sim", "report", "explain"} {
			err := runCommand(cmd, []string{path})
			if err == nil || !strings.Contains(err.Error(), "array A declares") ||
				!strings.Contains(err.Error(), "over the limit of 16777216") {
				t.Errorf("%s %s: err = %v, want the declared-size limit error", cmd, dims, err)
			}
		}
	}
}

// TestCmdRejectsBadFlagValues checks that out-of-range -m, -tau and -j
// values fail with an error naming the flag and its value, instead of
// running with the value clamped to the nearest legal one.
func TestCmdRejectsBadFlagValues(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "main.cdt3")
	if err := runCommand("trace", []string{"MAIN", "-o", trc}); err != nil {
		t.Fatal(err)
	}
	events, metrics := filepath.Join(dir, "x.jsonl"), filepath.Join(dir, "x.json")
	for _, tc := range []struct {
		cmd  string
		args []string
		want string
	}{
		{"sim", []string{"MAIN", "-policy", "lru", "-m", "-5"}, `invalid value "-5" for flag -m`},
		{"sim", []string{"MAIN", "-policy", "lru", "-m", "0"}, `invalid value "0" for flag -m`},
		{"sim", []string{"MAIN", "-policy", "ws", "-tau", "-3"}, `invalid value "-3" for flag -tau`},
		{"replay", []string{trc, "-policy", "lru", "-m", "0"}, `invalid value "0" for flag -m`},
		{"replay", []string{trc, "-policy", "ws", "-tau", "-1"}, `invalid value "-1" for flag -tau`},
		{"table1", []string{"-j", "-4"}, `invalid value "-4" for flag -j`},
		{"sweep", []string{"MAIN", "-j", "-1"}, `invalid value "-1" for flag -j`},
		{"report", []string{"MAIN", "-j", "-2"}, `invalid value "-2" for flag -j`},
		{"sim", []string{"MAIN", "-j", "-8"}, `invalid value "-8" for flag -j`},
		{"explain", []string{"HWSCRT", "-events", events}, "explain does not take -events or -metrics"},
		{"explain", []string{"HWSCRT", "-metrics", metrics}, "explain does not take -events or -metrics"},
	} {
		err := runCommand(tc.cmd, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: err = %v, want one containing %q", tc.cmd, tc.args, err, tc.want)
		}
	}
	for _, f := range []string{events, metrics} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("rejected explain flags left %s behind (stat err = %v)", f, err)
		}
	}
}

func TestCmdList(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSweepRuns(t *testing.T) {
	if err := cmdSweep([]string{"HWSCRT"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdExplain(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "tl.json")
	folded := filepath.Join(dir, "fl.txt")
	if err := cmdExplain([]string{"HWSCRT", "-top", "4", "-chrome", chrome, "-folded", folded}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{chrome, folded} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("export %s missing or empty: %v", f, err)
		}
	}
	if err := cmdExplain(nil); err == nil {
		t.Error("expected missing-argument error")
	}
}
