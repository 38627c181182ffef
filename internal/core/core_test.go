package core

import (
	"strings"
	"testing"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/vmsim"
)

const demoSrc = `
PROGRAM DEMO
DIMENSION A(128,8), V(256)
DO 20 J = 1, 8
  DO 10 I = 1, 128
    A(I,J) = FLOAT(I + J)
10 CONTINUE
20 CONTINUE
DO 40 K = 1, 4
  DO 30 L = 1, 256
    V(L) = V(L) * 0.5 + A(MOD(L, 128) + 1, 1)
30 CONTINUE
40 CONTINUE
END
`

func compile(t *testing.T) *Program {
	t.Helper()
	p, err := CompileSource("", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileSourceDefaults(t *testing.T) {
	p := compile(t)
	if p.Name != "DEMO" {
		t.Errorf("name = %q, want DEMO (from PROGRAM statement)", p.Name)
	}
	// A: 1024 elems = 16 pages; V: 256 elems = 4 pages.
	if p.V() != 20 {
		t.Errorf("V = %d, want 20", p.V())
	}
	if p.MaxPI() != 2 {
		t.Errorf("Δ = %d, want 2", p.MaxPI())
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileSource("X", "PROGRAM P\n=\nEND\n"); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := CompileSource("X", "PROGRAM P\nA(1) = 2.0\nEND\n"); err == nil {
		t.Error("semantic error not surfaced")
	}
	if _, err := CompileSourceOpts("X", demoSrc, Options{Geometry: mem.Geometry{PageSize: 7}}); err == nil {
		t.Error("bad geometry not surfaced")
	}
}

func TestTraceCachedAndSimulate(t *testing.T) {
	p := compile(t)
	tr1, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr1 != tr2 {
		t.Error("trace not cached")
	}
	res := vmsim.Run(tr1, policy.NewLRU(8))
	if res.Refs != tr1.Refs {
		t.Errorf("refs = %d, want %d", res.Refs, tr1.Refs)
	}
	if res.Faults < p.V() {
		t.Errorf("faults %d below compulsory minimum %d", res.Faults, p.V())
	}
}

func TestRunCDLevels(t *testing.T) {
	p := compile(t)
	tr, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	inner := vmsim.Run(tr, policy.NewCD(policy.SelectLevel(1), 2))
	outer := vmsim.Run(tr, policy.NewCD(policy.SelectLevel(2), 2))
	if outer.MEM() < inner.MEM() {
		t.Errorf("outer-level MEM %v < inner-level MEM %v", outer.MEM(), inner.MEM())
	}
	if outer.Faults > inner.Faults {
		t.Errorf("outer-level faults %d > inner-level %d", outer.Faults, inner.Faults)
	}
	// Overrides apply.
	ov := vmsim.Run(tr, policy.NewCD(policy.SelectLevels(1, map[string]int{"10": 2, "20": 2}), 2))
	if ov.MEM() < inner.MEM() {
		t.Errorf("override run should not shrink MEM below the base level")
	}
}

func TestSweepAccessors(t *testing.T) {
	p := compile(t)
	tr, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	lru, err := sweep.NewLRU(tr)
	if err != nil {
		t.Fatal(err)
	}
	if lru.V != tr.Distinct {
		t.Errorf("sweep V = %d, want %d", lru.V, tr.Distinct)
	}
	ws, err := sweep.NewWS(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Faults(1) < lru.Faults(lru.V) {
		t.Error("WS(1) cannot fault less than compulsory")
	}
}

func TestRenderers(t *testing.T) {
	p := compile(t)
	d := p.RenderDirectives()
	if !strings.Contains(d, "ALLOCATE") {
		t.Errorf("directives rendering missing ALLOCATE:\n%s", d)
	}
	l := p.RenderLocalityTree()
	if !strings.Contains(l, "DO 20") {
		t.Errorf("locality tree missing DO 20:\n%s", l)
	}
	s := p.Summary()
	for _, want := range []string{"DEMO", "V=20", "Δ=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}

// TestTraceRunError checks that Trace surfaces an interpreter run-time
// error (here an out-of-bounds subscript the compiler cannot see) instead
// of returning a partial trace, and keeps returning it.
func TestTraceRunError(t *testing.T) {
	p, err := CompileSource("X", `
PROGRAM X
DIMENSION A(4)
DO 10 I = 1, 8
  A(I) = 1.0
10 CONTINUE
END
`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		tr, err := p.Trace()
		if err == nil || !strings.Contains(err.Error(), "out of bounds") {
			t.Fatalf("Trace error = %v, want an out-of-bounds run-time error", err)
		}
		if tr != nil {
			t.Fatal("Trace returned a trace alongside its error")
		}
	}
}
