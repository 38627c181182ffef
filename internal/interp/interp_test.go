package interp

import (
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/fortran"
	"cdmm/internal/locality"
	"cdmm/internal/mem"
	"cdmm/internal/sem"
	"cdmm/internal/trace"
)

// setup compiles a source to the pieces the interpreter needs.
func setup(t *testing.T, src string, withPlan bool) (*sem.Info, Config) {
	t.Helper()
	prog, err := fortran.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	layout, err := mem.NewLayout(prog, mem.DefaultGeometry)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	cfg := Config{Layout: layout}
	if withPlan {
		cfg.Plan = directive.Build(locality.Analyze(info, layout))
	}
	return info, cfg
}

func run(t *testing.T, src string, withPlan bool) *trace.Trace {
	t.Helper()
	info, cfg := setup(t, src, withPlan)
	tr, err := Run(info, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return tr
}

func TestVectorScanTrace(t *testing.T) {
	// 128 elements = exactly 2 pages; one ref per element.
	tr := run(t, `
PROGRAM P
DIMENSION V(128)
DO I = 1, 128
  V(I) = 1.0
END DO
END
`, false)
	if tr.Refs != 128 {
		t.Errorf("refs = %d, want 128", tr.Refs)
	}
	if tr.Distinct != 2 {
		t.Errorf("distinct = %d, want 2", tr.Distinct)
	}
	pages := tr.Pages()
	if pages[0] != 0 || pages[63] != 0 || pages[64] != 1 || pages[127] != 1 {
		t.Errorf("page boundaries wrong: %v %v %v %v", pages[0], pages[63], pages[64], pages[127])
	}
}

func TestReadAndWriteBothCount(t *testing.T) {
	// V(I) = V(I) + 1.0 touches V twice per iteration (read then write).
	tr := run(t, `
PROGRAM P
DIMENSION V(64)
DO I = 1, 64
  V(I) = V(I) + 1.0
END DO
END
`, false)
	if tr.Refs != 128 {
		t.Errorf("refs = %d, want 128 (read+write per element)", tr.Refs)
	}
}

func TestEvaluationOrderRHSBeforeLHS(t *testing.T) {
	tr := run(t, `
PROGRAM P
DIMENSION A(64), B(64)
A(1) = B(1)
END
`, false)
	pages := tr.Pages()
	if len(pages) != 2 {
		t.Fatalf("refs = %d, want 2", len(pages))
	}
	// B occupies page 1 (declared second), A page 0; RHS read first.
	if pages[0] != 1 || pages[1] != 0 {
		t.Errorf("order = %v, want [B's page 1, A's page 0]", pages)
	}
}

func TestColumnMajorTraversal(t *testing.T) {
	// Column-wise walk: consecutive references stay on a page for 64
	// elements; row-wise walk strides across pages.
	colwise := run(t, `
PROGRAM P
DIMENSION A(64,4)
DO J = 1, 4
  DO I = 1, 64
    A(I,J) = 0.0
  END DO
END DO
END
`, false)
	pages := colwise.Pages()
	changes := 0
	for i := 1; i < len(pages); i++ {
		if pages[i] != pages[i-1] {
			changes++
		}
	}
	if changes != 3 {
		t.Errorf("column-wise page changes = %d, want 3", changes)
	}

	rowwise := run(t, `
PROGRAM P
DIMENSION A(64,4)
DO I = 1, 64
  DO J = 1, 4
    A(I,J) = 0.0
  END DO
END DO
END
`, false)
	pages = rowwise.Pages()
	changes = 0
	for i := 1; i < len(pages); i++ {
		if pages[i] != pages[i-1] {
			changes++
		}
	}
	if changes != 255 { // every reference hits a different page
		t.Errorf("row-wise page changes = %d, want 255", changes)
	}
}

func TestArithmeticCorrectness(t *testing.T) {
	// Sum 1..10 into V(1), then check the value via a conditional trace
	// effect: if the sum is wrong the second loop writes more pages.
	info, cfg := setup(t, `
PROGRAM P
DIMENSION V(64), W(64)
V(1) = 0.0
DO I = 1, 10
  V(1) = V(1) + FLOAT(I)
END DO
IF (V(1) .EQ. 55.0) THEN
  W(1) = 1.0
ENDIF
END
`, false)
	tr, err := Run(info, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 write + 10*(read+write) + 1 read (IF) + 1 write to W = 23 refs.
	if tr.Refs != 23 {
		t.Errorf("refs = %d, want 23 (implies V(1) == 55)", tr.Refs)
	}
}

func TestIntrinsics(t *testing.T) {
	info, cfg := setup(t, `
PROGRAM P
DIMENSION W(64)
X = SQRT(16.0) + ABS(-3.0) + MAX(1.0, 2.0, 7.0) + MIN(5.0, 2.0) + MOD(7.0, 3.0) + SIGN(4.0, -1.0)
IF (X .EQ. 13.0) W(1) = 1.0
END
`, false)
	tr, err := Run(info, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4+3+7+2+1-4 = 13 -> W(1) written -> exactly 1 ref.
	if tr.Refs != 1 {
		t.Errorf("refs = %d, want 1 (X should equal 13)", tr.Refs)
	}
}

func TestExitAndCycle(t *testing.T) {
	tr := run(t, `
PROGRAM P
DIMENSION V(64)
DO I = 1, 100
  IF (I .GT. 10) EXIT
  IF (MOD(FLOAT(I), 2.0) .EQ. 0.0) CYCLE
  V(I) = 1.0
END DO
END
`, false)
	// Odd I in 1..10: 5 writes.
	if tr.Refs != 5 {
		t.Errorf("refs = %d, want 5", tr.Refs)
	}
}

func TestDoStepAndDownward(t *testing.T) {
	tr := run(t, `
PROGRAM P
DIMENSION V(64)
DO I = 10, 1, -2
  V(I) = 1.0
END DO
DO J = 1, 10, 3
  V(J) = 2.0
END DO
END
`, false)
	if tr.Refs != 9 { // 5 downward + 4 upward
		t.Errorf("refs = %d, want 9", tr.Refs)
	}
}

func TestDirectiveEventsEmitted(t *testing.T) {
	tr := run(t, `
PROGRAM P
DIMENSION A(64), B(64)
DO I = 1, 3
  A(I) = 1.0
  DO J = 1, 4
    B(J) = A(I)
  END DO
END DO
END
`, true)
	var allocs, locks, unlocks int
	for _, e := range events(tr) {
		switch e.Kind {
		case trace.EvAlloc:
			allocs++
		case trace.EvLock:
			locks++
		case trace.EvUnlock:
			unlocks++
		}
	}
	// ALLOCATE before the outer loop once, before the inner loop 3 times.
	if allocs != 4 {
		t.Errorf("alloc events = %d, want 4", allocs)
	}
	// LOCK (A) before the inner loop each outer iteration.
	if locks != 3 {
		t.Errorf("lock events = %d, want 3", locks)
	}
	// UNLOCK after the outer loop once.
	if unlocks != 1 {
		t.Errorf("unlock events = %d, want 1", unlocks)
	}
}

func TestLockPagesResolved(t *testing.T) {
	tr := run(t, `
PROGRAM P
DIMENSION A(128), B(64)
DO I = 1, 128
  A(I) = 1.0
  DO J = 1, 2
    B(J) = A(I)
  END DO
END DO
END
`, true)
	// The LOCK before the inner loop pins A's current page: page 0 for
	// I <= 64, page 1 after.
	var firstLock, lastLock trace.LockSet
	seen := false
	for _, e := range events(tr) {
		if e.Kind == trace.EvLock {
			ls := tr.Lock(e)
			if !seen {
				firstLock = ls
				seen = true
			}
			lastLock = ls
		}
	}
	if !seen {
		t.Fatal("no lock events")
	}
	if len(firstLock.Pages) != 1 || firstLock.Pages[0] != 0 {
		t.Errorf("first lock pages = %v, want [0]", firstLock.Pages)
	}
	if len(lastLock.Pages) != 1 || lastLock.Pages[0] != 1 {
		t.Errorf("last lock pages = %v, want [1]", lastLock.Pages)
	}
}

func TestStripDirectives(t *testing.T) {
	tr := run(t, `
PROGRAM P
DIMENSION A(64), B(64)
DO I = 1, 3
  A(I) = 1.0
  DO J = 1, 4
    B(J) = A(I)
  END DO
END DO
END
`, true)
	plain := tr.RefsOnly()
	if plain.Refs != tr.Refs {
		t.Errorf("stripped refs = %d, want %d", plain.Refs, tr.Refs)
	}
	if plain.Distinct != tr.Distinct {
		t.Errorf("stripped distinct = %d, want %d", plain.Distinct, tr.Distinct)
	}
	for _, e := range events(plain) {
		if e.Kind != trace.EvRef {
			t.Fatalf("stripped trace contains %v event", e.Kind)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"out of bounds", "PROGRAM P\nDIMENSION V(10)\nDO I = 1, 11\nV(I) = 1.0\nEND DO\nEND\n"},
		{"undefined scalar", "PROGRAM P\nDIMENSION V(10)\nV(1) = X\nEND\n"},
		{"division by zero", "PROGRAM P\nX = 0.0\nY = 1.0 / X\nEND\n"},
		{"sqrt negative", "PROGRAM P\nX = SQRT(-1.0)\nEND\n"},
		{"zero step", "PROGRAM P\nN = 0\nDO I = 1, 5, N\nX = 1.0\nEND DO\nEND\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			info, cfg := setup(t, c.src, false)
			if _, err := Run(info, cfg); err == nil {
				t.Error("expected runtime error")
			}
		})
	}
}

func TestMaxRefsGuard(t *testing.T) {
	info, cfg := setup(t, `
PROGRAM P
DIMENSION V(64)
DO I = 1, 1000
  DO J = 1, 64
    V(J) = 1.0
  END DO
END DO
END
`, false)
	cfg.MaxRefs = 100
	if _, err := Run(info, cfg); err == nil {
		t.Error("expected max-refs error")
	}
}

func TestDeterminism(t *testing.T) {
	src := `
PROGRAM P
DIMENSION A(64,4), V(100)
DO J = 1, 4
  DO I = 1, 64
    A(I,J) = FLOAT(I) * 0.5
    V(MOD(I, 100) + 1) = A(I,J)
  END DO
END DO
END
`
	e1 := events(run(t, src, true))
	e2 := events(run(t, src, true))
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

// events flattens a trace's event stream by walking its blocks.
func events(tr *trace.Trace) []trace.Event {
	var out []trace.Event
	_ = tr.WalkBlocks(trace.CursorOpts{}, func(b trace.Block) bool {
		for _, pg := range b.Pages {
			out = append(out, trace.Event{Kind: trace.EvRef, Arg: int32(pg)})
		}
		if b.HasDir {
			out = append(out, b.Dir)
		}
		return true
	})
	return out
}
