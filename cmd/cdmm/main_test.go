package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cdmm/internal/trace"
	"cdmm/internal/workloads"
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
	err := runCommand("compile", nil)
	if err == nil {
		t.Error("expected missing-argument error")
	}
}

func TestCmdSimPolicies(t *testing.T) {
	for _, pol := range []string{"cd", "lru", "fifo", "ws", "opt"} {
		if err := runCommand("sim", []string{"HWSCRT", "-policy", pol, "-m", "16", "-tau", "300", "-level", "2"}); err != nil {
			t.Errorf("sim %s: %v", pol, err)
		}
	}
	if err := runCommand("sim", []string{"HWSCRT", "-policy", "bogus"}); err == nil {
		t.Error("expected unknown-policy error")
	}
}

func TestCmdTraceAndReplay(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.trc")
	if err := runCommand("trace", []string{"HWSCRT", "-o", out}); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(out); err != nil || !strings.HasPrefix(string(raw), "CDT3") {
		t.Fatalf("trace file missing or not CDT3: %v", err)
	}
	if err := runCommand("sim", []string{out, "-policy", "cd", "-level", "2"}); err != nil {
		t.Errorf("sim trace file: %v", err)
	}
	if err := runCommand("sim", []string{out, "-policy", "ws", "-tau", "200"}); err != nil {
		t.Errorf("sim trace file ws: %v", err)
	}
	if err := runCommand("sim", []string{filepath.Join(dir, "missing.trc")}); err == nil {
		t.Error("expected error for missing trace file")
	}
	again := filepath.Join(dir, "again.trc")
	if err := runCommand("trace", []string{out, "-o", again, "-chunk", "4096", "-check", "-stat"}); err != nil {
		t.Errorf("trace trace file: %v", err)
	}
	if err := runCommand("trace", []string{again, "-o", again}); err == nil {
		t.Error("trace wrote its input trace file over itself")
	}
}

// TestCmdSimTraceFileMatchesProgram: on every workload, `sim <prog>`
// and `sim <file written by trace -o>` print the same Result line under
// each policy; the first line differs by design (the program summary vs
// the trace's).
func TestCmdSimTraceFileMatchesProgram(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads.Names() {
		trc := filepath.Join(dir, w+".cdt3")
		captureStdout(t, func() error { return runCommand("trace", []string{w, "-o", trc}) })
		for _, pol := range []string{"cd", "lru", "fifo", "ws", "opt"} {
			result := func(operand string) string {
				out := captureStdout(t, func() error { return runCommand("sim", []string{operand, "-policy", pol}) })
				lines := strings.Split(strings.TrimSpace(out), "\n")
				return lines[len(lines)-1]
			}
			if prog, file := result(w), result(trc); prog != file {
				t.Errorf("%s -policy %s: program %q, trace file %q", w, pol, prog, file)
			}
		}
	}
}

// TestCmdTraceRechunksFile: `trace <file> -o` streams the file into the
// same bytes WriteCDT3 makes of the decoded trace, at either chunk size.
func TestCmdTraceRechunksFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.cdt3")
	captureStdout(t, func() error { return runCommand("trace", []string{"HWSCRT", "-o", in, "-chunk", "1000"}) })
	f, err := os.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{4096, 65536} {
		out := filepath.Join(dir, fmt.Sprintf("out%d.cdt3", chunk))
		captureStdout(t, func() error {
			return runCommand("trace", []string{in, "-o", out, "-chunk", strconv.Itoa(chunk), "-check"})
		})
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := trace.WriteCDT3(&want, tr, chunk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("-chunk %d: trace wrote %d bytes, WriteCDT3 of the decoded trace %d, not the same", chunk, len(got), want.Len())
		}
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
			if err := runCommand("sim", []string{path, "-policy", pol}); err == nil {
				t.Errorf("%s: sim -policy %s succeeded", name, pol)
			}
		}
		if err := runCommand("sweep", []string{path, "-policy", "lru"}); err == nil {
			t.Errorf("%s: sweep succeeded", name)
		}
		for _, args := range [][]string{{path}, {path, "-stat"}, {path, "-o", filepath.Join(dir, "out.cdt3")}} {
			if err := runCommand("trace", args); err == nil {
				t.Errorf("%s: trace %v succeeded", name, args[1:])
			}
		}
	}
}

// TestCmdTraceRejectsLyingHeader: a trace file whose stream holds fewer
// distinct pages than its header declares opens, but trace fails to
// re-encode it and leaves no output file behind.
func TestCmdTraceRejectsLyingHeader(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "lie.cdt3"), filepath.Join(dir, "out.cdt3")
	raw, err := hex.DecodeString("43445433" + "01480002020200000000" + "0202000000")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCommand("trace", []string{in, "-o", out}); err == nil || !strings.Contains(err.Error(), "its header declares") {
		t.Errorf("trace of a lying header: err = %v, want the header mismatch", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("failed trace left %s behind (stat err = %v)", out, err)
	}
}

// TestCmdRejectsLyingHeaders: trace files that hold two references to
// page 0 under headers declaring two distinct pages, or max page 5, fail
// every command that replays them when the stream ends, instead of
// printing results under the header's totals.
func TestCmdRejectsLyingHeaders(t *testing.T) {
	dir := t.TempDir()
	for name, hexBytes := range map[string]string{
		"distinct.cdt3": "43445433" + "01480002020200000000" + "0202000000",
		"maxpage.cdt3":  "43445433" + "0148000202010a000000" + "0202000000",
	} {
		raw, err := hex.DecodeString(hexBytes)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"sim", path, "-policy", "lru"}, {"sim", path, "-policy", "fifo"}, {"sim", path, "-policy", "ws"},
			{"sim", path, "-policy", "cd"}, {"sim", path, "-policy", "opt"},
			{"sweep", path, "-policy", "lru"}, {"sweep", path, "-policy", "ws"}, {"sweep", path, "-policy", "fifo"},
		} {
			err := runCommand(args[0], args[1:])
			if err == nil || !strings.Contains(err.Error(), "its header declares") {
				t.Errorf("%s: %v: err = %v, want the header mismatch", name, args, err)
			}
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
// running with the value clamped to the nearest legal one, and that
// undeclared flags and stray arguments fail instead of being dropped.
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
		{"sim", []string{trc, "-policy", "lru", "-m", "0"}, `invalid value "0" for flag -m`},
		{"sim", []string{trc, "-policy", "ws", "-tau", "-1"}, `invalid value "-1" for flag -tau`},
		{"sim", []string{"MAIN", "-level", "0"}, `invalid value "0" for flag -level`},
		{"sim", []string{"MAIN", "-level", "-3"}, `invalid value "-3" for flag -level`},
		{"sweep", []string{"MAIN", "-policy", "cd", "-level", "0"}, `invalid value "0" for flag -level`},
		{"explain", []string{"HWSCRT", "-level", "0"}, `invalid value "0" for flag -level`},
		{"kernel", []string{"-level", "0"}, `invalid value "0" for flag -level`},
		{"sweep", []string{"MAIN", "-policy", "lru", "-grid", "0,-3"}, `bad grid point "0": must be at least 1`},
		{"sweep", []string{"MAIN", "-policy", "fifo", "-grid", "2,-3"}, `bad grid point "-3": must be at least 1`},
		{"sweep", []string{trc, "-policy", "ws", "-grid", "0"}, `bad grid point "0": must be at least 1`},
		{"sweep", []string{"MAIN", "-policy", "cd", "-grid", "NaN,Inf"}, `bad grid point "NaN": must be positive and finite`},
		{"sweep", []string{"MAIN", "-policy", "cd", "-grid", "1,Inf"}, `bad grid point "Inf": must be positive and finite`},
		{"sweep", []string{"MAIN", "-policy", "cd", "-grid", "0"}, `bad grid point "0": must be positive and finite`},
		{"chaos", []string{"-intensity", "NaN"}, `bad intensity "NaN"`},
		{"trace", []string{"MAIN", "-chunk", "-5"}, `invalid value "-5" for flag -chunk`},
		{"trace", []string{"MAIN", "-repeat", "-3"}, `invalid value "-3" for flag -repeat`},
		{"trace", []string{"MAIN", "-stat", "-chunk", "16777217"}, "chunks of 16777217 events exceed the limit of 16777216"},
		{"trace", []string{trc, "-check"}, "-check needs an -o output"},
		{"trace", []string{"-o", filepath.Join(dir, "x.cdt3")}, "trace: missing"},
		{"table1", []string{"-j", "-4"}, `invalid value "-4" for flag -j`},
		{"sweep", []string{"MAIN", "-j", "-1"}, `invalid value "-1" for flag -j`},
		{"report", []string{"MAIN", "-j", "-2"}, `invalid value "-2" for flag -j`},
		{"sim", []string{"MAIN", "-j", "-8"}, "flag provided but not defined: -j"},
		{"sim", []string{trc, "-j", "2"}, "flag provided but not defined: -j"},
		{"serve", []string{"-j", "2"}, "flag provided but not defined: -j"},
		{"kernel", []string{"-j", "-1"}, `invalid value "-1" for flag -j`},
		{"chaos", []string{"-j", "-1"}, `invalid value "-1" for flag -j`},
		{"chaos", []string{"-no-such-flag"}, "flag provided but not defined: -no-such-flag"},
		{"compile", []string{"MAIN", "-bogus"}, "flag provided but not defined: -bogus"},
		{"list", []string{"extra"}, `list: unexpected argument "extra"`},
		{"report", []string{"MAIN", "extra", "-j", "2"}, `report: unexpected argument "extra"`},
		{"sim", []string{"MAIN", "-m", "3", "extra"}, `sim: unexpected argument "extra"`},
		{"family", []string{"extra"}, `family: unexpected argument "extra"`},
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
	if err := runCommand("list", nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSweepRuns(t *testing.T) {
	if err := runCommand("sweep", []string{"HWSCRT"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdExplain(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "tl.json")
	folded := filepath.Join(dir, "fl.txt")
	if err := runCommand("explain", []string{"HWSCRT", "-top", "4", "-chrome", chrome, "-folded", folded}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{chrome, folded} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("export %s missing or empty: %v", f, err)
		}
	}
	if err := runCommand("explain", nil); err == nil {
		t.Error("expected missing-argument error")
	}
}
