package advisor

import (
	"strings"
	"testing"

	"cdmm/internal/fortran"
	"cdmm/internal/locality"
	"cdmm/internal/mem"
	"cdmm/internal/sem"
)

func analyze(t *testing.T, src string) []Finding {
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
	return Analyze(locality.Analyze(info, layout))
}

func TestInterchangeCandidate(t *testing.T) {
	findings := analyze(t, `
PROGRAM P
DIMENSION A(128,16)
DO I = 1, 128
  DO J = 1, 16
    A(I,J) = 0.0
  END DO
END DO
END
`)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	f := findings[0]
	if f.Kind != InterchangeCandidate {
		t.Errorf("kind = %v, want interchange-candidate", f.Kind)
	}
	if f.Array != "A" {
		t.Errorf("array = %s, want A", f.Array)
	}
	if f.Inner == nil || f.Outer == nil || f.Inner.Parent != f.Outer {
		t.Error("inner/outer loops not identified")
	}
}

func TestColumnWiseCleanNest(t *testing.T) {
	findings := analyze(t, `
PROGRAM P
DIMENSION A(128,16)
DO J = 1, 16
  DO I = 1, 128
    A(I,J) = 0.0
  END DO
END DO
END
`)
	if len(findings) != 0 {
		t.Errorf("column-wise nest should be clean, got %+v", findings)
	}
}

func TestRowWiseNonAdjacent(t *testing.T) {
	// The row index comes from a loop two levels out: reported as a plain
	// row-wise traversal, not an interchange candidate.
	findings := analyze(t, `
PROGRAM P
DIMENSION A(128,16)
DO I = 1, 128
  DO K = 1, 2
    DO J = 1, 16
      A(I,J) = FLOAT(K)
    END DO
  END DO
END DO
END
`)
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(findings), findings)
	}
	if findings[0].Kind != RowWiseTraversal {
		t.Errorf("kind = %v, want row-wise-traversal", findings[0].Kind)
	}
}

func TestLargeLocalityBudget(t *testing.T) {
	// The K loop re-references the whole 157-page array every iteration;
	// the J and I loops need 2 pages and 1.
	findings := analyze(t, `
PROGRAM P
DIMENSION A(100,100)
DO K = 1, 3
  DO J = 1, 100
    DO I = 1, 100
      A(I,J) = A(I,J) + 1.0
    END DO
  END DO
END DO
END
`)
	var large []Finding
	for _, f := range findings {
		if f.Kind == LargeLocality {
			large = append(large, f)
		}
	}
	if len(large) != 1 || large[0].Pages != 157 || large[0].Loop.Var() != "K" {
		t.Fatalf("want one large-locality finding, the K loop's 157 pages, got %+v", large)
	}
	if !strings.Contains(large[0].Msg, "157-page locality (budget 64)") {
		t.Errorf("finding message %q does not name the locality and the budget of 64", large[0].Msg)
	}
}

func TestFindingsSortedByLine(t *testing.T) {
	findings := analyze(t, `
PROGRAM P
DIMENSION A(128,16), B(128,16)
DO I = 1, 128
  DO J = 1, 16
    A(I,J) = 0.0
  END DO
END DO
DO I2 = 1, 128
  DO J2 = 1, 16
    B(I2,J2) = 0.0
  END DO
END DO
END
`)
	if len(findings) != 2 {
		t.Fatalf("findings = %d, want 2", len(findings))
	}
	if findings[0].Line >= findings[1].Line {
		t.Errorf("findings not sorted by line: %d, %d", findings[0].Line, findings[1].Line)
	}
}

func TestRender(t *testing.T) {
	findings := analyze(t, `
PROGRAM P
DIMENSION A(128,16)
DO I = 1, 128
  DO J = 1, 16
    A(I,J) = 0.0
  END DO
END DO
END
`)
	out := Render(findings)
	if !strings.Contains(out, "interchange") {
		t.Errorf("rendering missing interchange advice:\n%s", out)
	}
	if got := Render(nil); got != "no findings\n" {
		t.Errorf("empty rendering = %q", got)
	}
}

// TestInterchangeActuallyHelps verifies the advice is sound: the suggested
// column-wise version of a flagged nest produces far fewer faults at a
// small allocation than the row-wise original.
func TestInterchangeActuallyHelps(t *testing.T) {
	rowwise := `
PROGRAM P
DIMENSION A(128,16)
DO I = 1, 128
  DO J = 1, 16
    A(I,J) = 1.0
  END DO
END DO
END
`
	colwise := `
PROGRAM P
DIMENSION A(128,16)
DO J = 1, 16
  DO I = 1, 128
    A(I,J) = 1.0
  END DO
END DO
END
`
	faults := func(src string) int {
		prog, err := fortran.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := mem.NewLayout(prog, mem.DefaultGeometry)
		if err != nil {
			t.Fatal(err)
		}
		// Simulate with a 4-frame LRU directly over the element order.
		resident := map[mem.Page]int{}
		lru := 0
		pf := 0
		var touch func(row, col int)
		touch = func(row, col int) {
			p, err := layout.PageOf("A", row, col)
			if err != nil {
				t.Fatal(err)
			}
			lru++
			if _, ok := resident[p]; !ok {
				pf++
				if len(resident) >= 4 {
					// evict LRU
					var victim mem.Page
					best := 1 << 62
					for q, at := range resident {
						if at < best {
							best, victim = at, q
						}
					}
					delete(resident, victim)
				}
			}
			resident[p] = lru
		}
		if strings.Contains(src, "DO I = 1, 128\n  DO J") {
			for i := 1; i <= 128; i++ {
				for j := 1; j <= 16; j++ {
					touch(i, j)
				}
			}
		} else {
			for j := 1; j <= 16; j++ {
				for i := 1; i <= 128; i++ {
					touch(i, j)
				}
			}
		}
		return pf
	}
	rw, cw := faults(rowwise), faults(colwise)
	if cw*10 > rw {
		t.Errorf("interchange should cut faults by >10x: row-wise %d, column-wise %d", rw, cw)
	}
}
