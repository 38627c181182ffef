package interp

import (
	"testing"

	"cdmm/internal/trace"
)

// countRefs runs a program and returns the reference count; used to make
// the interpreter's arithmetic observable through control flow.
func countRefs(t *testing.T, src string) int {
	t.Helper()
	info, cfg := setup(t, src, false)
	tr, err := Run(info, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Refs
}

func TestShortCircuitAnd(t *testing.T) {
	// With .AND. short-circuit, V(1) on the right must not be referenced
	// when the left side is false.
	refs := countRefs(t, `
PROGRAM P
DIMENSION V(64), W(64)
X = 0.0
IF (X .GT. 1.0 .AND. V(1) .GT. 0.0) W(1) = 1.0
END
`)
	if refs != 0 {
		t.Errorf("refs = %d, want 0 (short-circuited)", refs)
	}
}

func TestShortCircuitOr(t *testing.T) {
	refs := countRefs(t, `
PROGRAM P
DIMENSION V(64), W(64)
X = 2.0
IF (X .GT. 1.0 .OR. V(1) .GT. 0.0) W(1) = 1.0
END
`)
	// Only the W(1) write: the V(1) read is skipped.
	if refs != 1 {
		t.Errorf("refs = %d, want 1", refs)
	}
}

func TestElseIfChainEvaluation(t *testing.T) {
	// X = 1.5 selects the middle branch: exactly one write.
	refs := countRefs(t, `
PROGRAM P
DIMENSION A(64), B(64), C(64)
X = 1.5
IF (X .GT. 2.0) THEN
  A(1) = 1.0
ELSE IF (X .GT. 1.0) THEN
  B(1) = 1.0
ELSE
  C(1) = 1.0
ENDIF
END
`)
	if refs != 1 {
		t.Errorf("refs = %d, want 1 (middle branch only)", refs)
	}
}

func TestNotOperator(t *testing.T) {
	refs := countRefs(t, `
PROGRAM P
DIMENSION W(64)
X = 0.0
IF (.NOT. X .GT. 1.0) W(1) = 1.0
END
`)
	if refs != 1 {
		t.Errorf("refs = %d, want 1", refs)
	}
}

func TestIntTruncationAndFloat(t *testing.T) {
	refs := countRefs(t, `
PROGRAM P
DIMENSION W(64)
X = INT(2.9)
Y = FLOAT(3)
IF (X .EQ. 2.0 .AND. Y .EQ. 3.0) W(1) = 1.0
END
`)
	if refs != 1 {
		t.Errorf("refs = %d, want 1 (INT truncates, FLOAT converts)", refs)
	}
}

func TestNestedLoopVariablePersistence(t *testing.T) {
	// FORTRAN loop variables persist after the loop with the
	// first-out-of-range value.
	refs := countRefs(t, `
PROGRAM P
DIMENSION W(64)
DO I = 1, 5
  X = 1.0
END DO
IF (I .EQ. 6.0) W(1) = 1.0
END
`)
	if refs != 1 {
		t.Errorf("refs = %d, want 1 (I persists as 6)", refs)
	}
}

func TestExitFromNestedLoopOnlyInner(t *testing.T) {
	// EXIT leaves only the innermost loop: the outer completes 3 passes,
	// each writing once before the inner EXIT.
	refs := countRefs(t, `
PROGRAM P
DIMENSION W(64)
DO I = 1, 3
  DO J = 1, 100
    W(J) = 1.0
    EXIT
  END DO
END DO
END
`)
	if refs != 3 {
		t.Errorf("refs = %d, want 3", refs)
	}
}

func TestCycleSkipsRest(t *testing.T) {
	refs := countRefs(t, `
PROGRAM P
DIMENSION W(64)
DO I = 1, 10
  CYCLE
  W(I) = 1.0
END DO
END
`)
	if refs != 0 {
		t.Errorf("refs = %d, want 0 (CYCLE skips the write)", refs)
	}
}

func TestSignIntrinsicBothSigns(t *testing.T) {
	refs := countRefs(t, `
PROGRAM P
DIMENSION W(64)
A = SIGN(3.0, 2.0)
B = SIGN(3.0, -2.0)
IF (A .EQ. 3.0 .AND. B .EQ. -3.0) W(1) = 1.0
END
`)
	if refs != 1 {
		t.Errorf("refs = %d, want 1", refs)
	}
}

func TestLoopBoundsWithIntrinsics(t *testing.T) {
	refs := countRefs(t, `
PROGRAM P
DIMENSION W(64)
N = 10
DO I = 1, MIN(N, 4)
  W(I) = 1.0
END DO
END
`)
	if refs != 4 {
		t.Errorf("refs = %d, want 4", refs)
	}
}

func TestUnlockEventCoversArrays(t *testing.T) {
	tr := run(t, `
PROGRAM P
DIMENSION A(128), B(64)
DO I = 1, 4
  A(I) = 1.0
  DO J = 1, 2
    B(J) = A(I)
  END DO
END DO
END
`, true)
	var unlocks [][]int
	for _, e := range events(tr) {
		if e.Kind == trace.EvUnlock {
			pages := tr.Unlock(e)
			var ps []int
			for _, p := range pages {
				ps = append(ps, int(p))
			}
			unlocks = append(unlocks, ps)
		}
	}
	if len(unlocks) != 1 {
		t.Fatalf("unlock events = %d, want 1", len(unlocks))
	}
	// UNLOCK covers all pages of the locked array A (2 pages).
	if len(unlocks[0]) != 2 {
		t.Errorf("unlock pages = %v, want A's 2 pages", unlocks[0])
	}
}
