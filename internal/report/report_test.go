package report

import (
	"runtime"
	"strings"
	"testing"

	"cdmm/internal/engine"

	"cdmm/internal/core"
	"cdmm/internal/workloads"
)

func TestGenerateFullReport(t *testing.T) {
	w, err := workloads.Get("HWSCRT")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.CompileSource(w.Name, w.Source)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(p, Options{Engine: engine.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HWSCRT",
		"## Arrays",
		"| F | 64×64 | 64 | 1 |",
		"## Loop nest",
		"## Locality structure",
		"## Inserted memory directives",
		"ALLOCATE",
		"## Compiler advisories",
		"## Execution trace",
		"## Runtime localities",
		"## Policy comparison",
		"best LRU",
		"best WS",
		"## Fault timeline",
		"Resident set",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestGenerateSkips(t *testing.T) {
	p, err := core.CompileSource("T", `
PROGRAM T
DIMENSION V(128)
DO I = 1, 128
  V(I) = 1.0
END DO
END
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(p, Options{SkipBLI: true, SkipSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "Runtime localities") {
		t.Error("BLI section present despite SkipBLI")
	}
	if strings.Contains(out, "Policy comparison") {
		t.Error("simulation section present despite SkipSimulation")
	}
	if !strings.Contains(out, "## Arrays") {
		t.Error("static sections missing")
	}
}

func TestReferenceOrdersColumn(t *testing.T) {
	p, err := core.CompileSource("T", `
PROGRAM T
DIMENSION A(64,8)
DO I = 1, 64
  DO J = 1, 8
    A(I,J) = 0.0
  END DO
END DO
END
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(p, Options{SkipBLI: true, SkipSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "A:row-wise") {
		t.Errorf("loop table missing the row-wise classification:\n%s", out)
	}
	if !strings.Contains(out, "interchange") {
		t.Error("advisories missing the interchange finding")
	}
}

// TestReportDeterministicAcrossParallelism checks the report satellite of
// the engine's determinism contract: the full markdown report (policy
// comparison table, timeline strips) is byte-identical whether its runs
// execute sequentially or on a saturated worker pool.
func TestReportDeterministicAcrossParallelism(t *testing.T) {
	w, err := workloads.Get("HWSCRT")
	if err != nil {
		t.Fatal(err)
	}
	// A fresh Program per generation: Summary() mentions the trace length
	// once the lazy trace exists, so reusing one Program would differ on
	// the second render independent of parallelism.
	gen := func(workers int) string {
		p, err := core.CompileSource(w.Name, w.Source)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Generate(p, Options{SkipBLI: true, Engine: engine.New(workers)})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := gen(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := gen(workers); got != want {
			t.Errorf("report differs between 1 and %d workers", workers)
		}
	}
}
