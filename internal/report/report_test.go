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
	out, err := Generate(p, engine.New(0))
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

// TestGenerateSkips: the full report of a one-loop program renders every
// section, and its attribution table skips the sites that took no fault:
// the loop's ALLOCATE site appears in the directive table only.
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
	out, err := Generate(p, engine.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Arrays", "## Runtime localities", "## Policy comparison",
		"## Fault attribution", "## Fault timeline",
		"| 1 | DO(I)@4 · V(I) | 128 | 2 | 2 | 1.50 | 100.0% |",
		"| DO(I)@4 · ALLOCATE | 1 | 0 | 0 | 0 | 0 | 0 | 0 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "DO(I)@4 · ALLOCATE"); n != 1 {
		t.Errorf("the fault-free ALLOCATE site appears %d times, want once (the directive table):\n%s", n, out)
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
	out, err := Generate(p, engine.New(1))
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
		out, err := Generate(p, engine.New(workers))
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
