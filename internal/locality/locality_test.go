package locality

import (
	"strings"
	"testing"

	"cdmm/internal/fortran"
	"cdmm/internal/mem"
	"cdmm/internal/sem"
)

// figure1Src is the paper's Figure 1 code: arrays E and F referenced
// row-wise in loop 20, G and H column-wise in loop 30, all inside loop 10.
const figure1Src = `
PROGRAM FIG1
DIMENSION E(200,100), F(200,100), G(200,10), H(200,10)
DO 10 I = 1, 10
  DO 20 K = 1, 100
    E(I,K) = F(I,K) + 1.0
20  CONTINUE
  DO 30 K = 1, 200
    G(K,I) = H(K,I)
30  CONTINUE
10 CONTINUE
END
`

// figure5Src reconstructs the paper's Figure 5a loop structure: loop 4
// outermost containing vectors A and B, an inner leaf loop 2 with vectors
// C and D plus row-wise CC and column-wise DD, and loop 3 with vectors E
// and F enclosing innermost loop 1.
const figure5Src = `
PROGRAM FIG5
PARAMETER (N = 100)
DIMENSION A(N), B(N), C(N), D(N), E(N), F(N), CC(N,N), DD(N,N)
DO 4 I = 1, N
  A(I) = B(I) + 1.0
  DO 2 J = 1, N
    C(J) = D(J) + CC(I,J) + DD(J,I)
2 CONTINUE
  DO 3 K = 1, N
    E(K) = F(K) * 2.0
    DO 1 M = 1, N
      E(K) = E(K) + F(M)
1   CONTINUE
3 CONTINUE
4 CONTINUE
END
`

func analyzeSrc(t *testing.T, src string) *Analysis {
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
	return Analyze(info, layout)
}

func groupFor(a *Analysis, array string, loop *sem.Loop) *Group {
	for _, g := range a.Groups {
		if g.Array == array && g.Loop == loop {
			return g
		}
	}
	return nil
}

// TestFigure1ConceptualTree verifies the Figure 1 diagram: loop 10 forms
// the locality {E, F}; loop 20 forms no locality; loop 30 forms the
// column locality {G_i, H_i}.
func TestFigure1ConceptualTree(t *testing.T) {
	a := analyzeSrc(t, figure1Src)
	tree := a.Tree()
	loop10 := tree.Children[0]
	loop20, loop30 := loop10.Children[0], loop10.Children[1]

	if !loop10.FormsLocality() {
		t.Fatal("loop 10 should form a locality")
	}
	var names []string
	for _, s := range loop10.Sets {
		names = append(names, s.Array)
	}
	if got := strings.Join(names, ","); got != "E,F" {
		t.Errorf("loop 10 locality = {%s}, want {E,F}", got)
	}

	if loop20.FormsLocality() {
		t.Errorf("loop 20 should form no locality, got %+v", loop20.Sets)
	}

	if !loop30.FormsLocality() {
		t.Fatal("loop 30 should form a locality")
	}
	names = nil
	for _, s := range loop30.Sets {
		names = append(names, s.Array)
		// Each member is one column: CVS = ceil(200/64) = 4 pages.
		if s.Pages != 4 {
			t.Errorf("loop 30 member %s = %d pages, want CVS=4", s.Array, s.Pages)
		}
	}
	if got := strings.Join(names, ","); got != "G,H" {
		t.Errorf("loop 30 locality = {%s}, want {G,H}", got)
	}
}

// TestFigure5Contributions verifies the paper's worked example for the
// loop 4 locality size X1: vectors A and B contribute one page each;
// vectors C, D, E, F contribute their full AVS; row-wise CC contributes
// Xr·N = N pages; column-wise DD contributes a single page.
func TestFigure5Contributions(t *testing.T) {
	a := analyzeSrc(t, figure5Src)
	loop4 := a.Info.Root.Children[0]
	loop2 := loop4.Children[0]

	avsVec := a.Layout.AVS("C") // ceil(100/64) = 2

	cases := []struct {
		array string
		loop  *sem.Loop
		want  int
	}{
		{"A", loop4, 1}, // one indexed variable, pages abandoned
		{"B", loop4, 1},
		{"C", loop2, avsVec}, // entire virtual size spans the level-1 locality
		{"D", loop2, avsVec},
		{"CC", loop2, 100}, // row-wise: Xr × N = 1 × 100
		{"DD", loop2, 1},   // column-wise at the column-selecting loop: Xr × Xc = 1
	}
	for _, c := range cases {
		g := groupFor(a, c.array, c.loop)
		if g == nil {
			t.Fatalf("no group for %s", c.array)
		}
		if got := a.Contribution(g, loop4); got != c.want {
			t.Errorf("contribution(%s, loop4) = %d, want %d", c.array, got, c.want)
		}
	}
}

func TestFigure5TotalX1(t *testing.T) {
	a := analyzeSrc(t, figure5Src)
	loop4 := a.Info.Root.Children[0]
	// A(1) + B(1) + C(2) + D(2) + E(2) + F(2) + CC(100) + DD(1) = 111.
	if got := a.ActiveSize(loop4); got != 111 {
		t.Errorf("X1 = %d, want 111", got)
	}
}

func TestFigure5InnerLoopSizes(t *testing.T) {
	a := analyzeSrc(t, figure5Src)
	loop4 := a.Info.Root.Children[0]
	loop2, loop3 := loop4.Children[0], loop4.Children[1]
	loop1 := loop3.Children[0]

	// Loop 2: C(J), D(J) walk the vectors (1 page active each); CC active
	// pages 1; DD: column-wise, at the traversing loop the active set is
	// Xr·Xc = 1. Total 4, floored by nothing.
	if got := a.ActiveSize(loop2); got != 4 {
		t.Errorf("X(loop2) = %d, want 4", got)
	}
	// Loop 3: E,F walked (1 each) plus F spanned wholly by loop 1 (AVS=2)
	// -> E:1, F:max(1, AVS=2)=2 ... F is referenced both at loop 3 level
	// (F(K)) and fully inside loop 1 (F(M)); at loop 3 the inner group
	// re-references the whole vector every iteration -> AVS.
	if got := a.ActiveSize(loop3); got != 3 {
		t.Errorf("X(loop3) = %d, want 3 (E:1 + F:2)", got)
	}
	// Loop 1: E(K) invariant (1 page), F(M) walking (1 page) -> 2.
	if got := a.ActiveSize(loop1); got != 2 {
		t.Errorf("X(loop1) = %d, want 2", got)
	}
}

func TestMinResidentFloor(t *testing.T) {
	a := analyzeSrc(t, `
PROGRAM P
DIMENSION V(100)
DO I = 1, 100
  V(I) = 1.0
END DO
END
`)
	l := a.Info.Root.Children[0]
	// One walking vector = 1 page, floored at MinResident = 2.
	if got := a.ActiveSize(l); got != MinResident {
		t.Errorf("ActiveSize = %d, want floor %d", got, MinResident)
	}
}

func TestColumnWiseBetweenLevels(t *testing.T) {
	// Three-level nest: K selects columns, J re-traverses them, I walks
	// rows. At the middle loop the whole column is the locality.
	a := analyzeSrc(t, `
PROGRAM P
DIMENSION A(128,10)
DO K = 1, 10
  DO J = 1, 5
    DO I = 1, 128
      A(I,K) = A(I,K) + 1.0
    END DO
  END DO
END DO
END
`)
	loopK := a.Info.Root.Children[0]
	loopJ := loopK.Children[0]
	loopI := loopJ.Children[0]
	g := groupFor(a, "A", loopI)
	if g == nil {
		t.Fatal("no group for A")
	}
	if g.Order != sem.OrderColumnWise {
		t.Fatalf("order = %v, want column-wise", g.Order)
	}
	// CVS = 2 (128 elements / 64 per page).
	if got := a.Contribution(g, loopI); got != 1 { // traversing: Xr·Xc = 1
		t.Errorf("at I: %d, want 1", got)
	}
	if got := a.Contribution(g, loopJ); got != 2 { // re-traversal: Xc·CVS
		t.Errorf("at J: %d, want CVS=2", got)
	}
	if got := a.Contribution(g, loopK); got != 1 { // fresh columns: Xr·Xc
		t.Errorf("at K: %d, want 1", got)
	}
}

func TestColumnWiseTwoLevelsUpGetsAVS(t *testing.T) {
	a := analyzeSrc(t, `
PROGRAM P
DIMENSION A(128,10)
DO M = 1, 3
  DO K = 1, 10
    DO I = 1, 128
      A(I,K) = A(I,K) * 0.5
    END DO
  END DO
END DO
END
`)
	loopM := a.Info.Root.Children[0]
	loopK := loopM.Children[0]
	loopI := loopK.Children[0]
	g := groupFor(a, "A", loopI)
	if got, want := a.Contribution(g, loopM), a.Layout.AVS("A"); got != want {
		t.Errorf("two levels above traversal = %d, want AVS %d", got, want)
	}
	if got := a.Contribution(g, loopK); got != 1 {
		t.Errorf("at column selector = %d, want 1", got)
	}
}

func TestRowWiseAboveSelectorGetsAVS(t *testing.T) {
	a := analyzeSrc(t, `
PROGRAM P
DIMENSION A(128,10)
DO M = 1, 3
  DO I = 1, 128
    DO J = 1, 10
      A(I,J) = A(I,J) + 1.0
    END DO
  END DO
END DO
END
`)
	loopM := a.Info.Root.Children[0]
	loopI := loopM.Children[0]
	loopJ := loopI.Children[0]
	g := groupFor(a, "A", loopJ)
	if g.Order != sem.OrderRowWise {
		t.Fatalf("order = %v, want row-wise", g.Order)
	}
	if got := a.Contribution(g, loopJ); got != 1 {
		t.Errorf("at traversal loop = %d, want 1 (no locality)", got)
	}
	if got := a.Contribution(g, loopI); got != 10 { // Xr·N
		t.Errorf("at row selector = %d, want Xr·N = 10", got)
	}
	if got, want := a.Contribution(g, loopM), a.Layout.AVS("A"); got != want {
		t.Errorf("above row selector = %d, want AVS %d", got, want)
	}
}

func TestDiagonalContribution(t *testing.T) {
	a := analyzeSrc(t, `
PROGRAM P
DIMENSION A(100,100)
DO K = 1, 5
  DO I = 1, 100
    A(I,I) = 1.0
  END DO
END DO
END
`)
	loopK := a.Info.Root.Children[0]
	loopI := loopK.Children[0]
	g := groupFor(a, "A", loopI)
	if g.Order != sem.OrderDiagonal {
		t.Fatalf("order = %v, want diagonal", g.Order)
	}
	if got := a.Contribution(g, loopI); got != 1 {
		t.Errorf("at diagonal walk = %d, want 1", got)
	}
	if got := a.Contribution(g, loopK); got != 100 { // min(M,N) pages
		t.Errorf("above diagonal walk = %d, want 100", got)
	}
}

func TestContributionNeverExceedsAVS(t *testing.T) {
	for _, src := range []string{figure1Src, figure5Src} {
		a := analyzeSrc(t, src)
		for _, g := range a.Groups {
			avs := a.Layout.AVS(g.Array)
			for l := g.Loop; l != nil && l.Stmt != nil; l = l.Parent {
				if got := a.Contribution(g, l); got > avs || got < 1 {
					t.Errorf("%s at %s: contribution %d outside [1, AVS=%d]", g.Array, l.Label(), got, avs)
				}
			}
		}
	}
}

// TestMonotoneOuterNeverSmaller checks the paper's observation that outer
// localities are at least as large as inner ones along any nest path.
func TestMonotoneOuterNeverSmaller(t *testing.T) {
	for _, src := range []string{figure1Src, figure5Src} {
		a := analyzeSrc(t, src)
		for _, l := range a.Info.Loops {
			if l.Parent == nil || l.Parent.Stmt == nil {
				continue
			}
			inner := a.ActiveSize(l)
			outer := a.ActiveSize(l.Parent)
			if outer < inner {
				t.Errorf("%s: X(outer %s)=%d < X(inner %s)=%d", src[:20], l.Parent.Label(), outer, l.Label(), inner)
			}
		}
	}
}

func TestRenderTree(t *testing.T) {
	a := analyzeSrc(t, figure1Src)
	out := RenderTree(a.Tree())
	for _, want := range []string{"DO 10", "DO 20 (no locality)", "DO 30 locality {G:4, H:4}"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree rendering missing %q:\n%s", want, out)
		}
	}
}
