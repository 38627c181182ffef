package directive

import (
	"strings"
	"testing"
	"testing/quick"

	"cdmm/internal/fortran"
	"cdmm/internal/locality"
	"cdmm/internal/mem"
	"cdmm/internal/sem"
)

// figure5Src reconstructs the paper's Figure 5a loop structure (see the
// locality package tests for the array-contribution calibration).
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

func planFor(t *testing.T, src string) *Plan {
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
	return Build(locality.Analyze(info, layout, locality.DefaultParams))
}

// TestFigure2PriorityAssignment reproduces the Figure 2 example: a nest
// where the outermost loop encloses a depth-3 chain and a depth-1 leaf;
// merging paths take the maximum.
// allocateFor returns the ALLOCATE directive preceding the loop, or nil.
func allocateFor(p *Plan, l *sem.Loop) *Allocate {
	for _, d := range p.PreLoop[l] {
		if a, ok := d.(*Allocate); ok {
			return a
		}
	}
	return nil
}

// lockFor returns the LOCK directive preceding the loop, or nil.
func lockFor(p *Plan, l *sem.Loop) *Lock {
	for _, d := range p.PreLoop[l] {
		if lk, ok := d.(*Lock); ok {
			return lk
		}
	}
	return nil
}

func TestFigure2PriorityAssignment(t *testing.T) {
	p := planFor(t, `
PROGRAM FIG2
DIMENSION V(10)
DO 40 I = 1, 10
  DO 20 J = 1, 10
    DO 10 K = 1, 10
      V(K) = 1.0
10  CONTINUE
20 CONTINUE
  DO 30 L = 1, 10
    V(L) = 2.0
30 CONTINUE
40 CONTINUE
END
`)
	loops := p.Analysis.Info.Loops
	byLabel := map[string]*sem.Loop{}
	for _, l := range loops {
		byLabel[l.Stmt.Label] = l
	}
	want := map[string]int{"40": 3, "20": 2, "10": 1, "30": 1}
	for label, pi := range want {
		if got := p.PI[byLabel[label]]; got != pi {
			t.Errorf("PI(DO %s) = %d, want %d", label, got, pi)
		}
	}
	if p.MaxPI != 3 {
		t.Errorf("MaxPI = %d, want 3", p.MaxPI)
	}
}

// TestFigure5AllocateChains verifies the exact ALLOCATE argument lists of
// Figure 5c: (3,x1) everywhere first; (1,x2) for loop 2; (2,x3) for loop 3
// carried into loop 1's (3,x1) else (2,x3) else (1,x4).
func TestFigure5AllocateChains(t *testing.T) {
	p := planFor(t, figure5Src)
	byLabel := map[string]*sem.Loop{}
	for _, l := range p.Analysis.Info.Loops {
		byLabel[l.Stmt.Label] = l
	}
	loop4, loop2, loop3, loop1 := byLabel["4"], byLabel["2"], byLabel["3"], byLabel["1"]

	x1 := p.Analysis.ActiveSize(loop4)
	x2 := p.Analysis.ActiveSize(loop2)
	x3 := p.Analysis.ActiveSize(loop3)
	x4 := p.Analysis.ActiveSize(loop1)

	check := func(l *sem.Loop, want []Arm) {
		t.Helper()
		a := allocateFor(p, l)
		if a == nil {
			t.Fatalf("no ALLOCATE for %s", l.Label())
		}
		if len(a.Arms) != len(want) {
			t.Fatalf("%s: %d arms %v, want %d", l.Label(), len(a.Arms), a.Arms, len(want))
		}
		for i := range want {
			if a.Arms[i] != want[i] {
				t.Errorf("%s arm %d = %+v, want %+v", l.Label(), i, a.Arms[i], want[i])
			}
		}
	}
	check(loop4, []Arm{{3, x1}})
	check(loop2, []Arm{{3, x1}, {1, x2}})
	check(loop3, []Arm{{3, x1}, {2, x3}})
	check(loop1, []Arm{{3, x1}, {2, x3}, {1, x4}})
}

// TestFigure5Locks verifies LOCK (3,A,B) precedes loop 2 and LOCK (2,E,F)
// precedes loop 1, and the closing UNLOCK covers A,B,E,F.
func TestFigure5Locks(t *testing.T) {
	p := planFor(t, figure5Src)
	byLabel := map[string]*sem.Loop{}
	for _, l := range p.Analysis.Info.Loops {
		byLabel[l.Stmt.Label] = l
	}
	lk2 := lockFor(p, byLabel["2"])
	if lk2 == nil {
		t.Fatal("no LOCK before loop 2")
	}
	if lk2.PJ != 3 {
		t.Errorf("LOCK before loop 2: PJ = %d, want 3", lk2.PJ)
	}
	if got := strings.Join(lk2.Arrays, ","); got != "A,B" {
		t.Errorf("LOCK before loop 2 arrays = %s, want A,B", got)
	}

	lk1 := lockFor(p, byLabel["1"])
	if lk1 == nil {
		t.Fatal("no LOCK before loop 1")
	}
	if lk1.PJ != 2 {
		t.Errorf("LOCK before loop 1: PJ = %d, want 2", lk1.PJ)
	}
	if got := strings.Join(lk1.Arrays, ","); got != "E,F" {
		t.Errorf("LOCK before loop 1 arrays = %s, want E,F", got)
	}

	// No LOCK between loop 2 and loop 3 (no array statements in between).
	if lk3 := lockFor(p, byLabel["3"]); lk3 != nil {
		t.Errorf("unexpected LOCK before loop 3: %v", lk3)
	}

	post := p.PostLoop[byLabel["4"]]
	if len(post) != 1 {
		t.Fatalf("post-loop directives = %d, want 1 UNLOCK", len(post))
	}
	ul := post[0].(*Unlock)
	if got := strings.Join(ul.Arrays, ","); got != "A,B,E,F" {
		t.Errorf("UNLOCK arrays = %s, want A,B,E,F", got)
	}
}

// TestFigure5Render is the golden rendering of Figure 5c's shape.
func TestFigure5Render(t *testing.T) {
	p := planFor(t, figure5Src)
	out := p.Render()
	for _, want := range []string{
		"LOCK (3,A,B)",
		"LOCK (2,E,F)",
		"UNLOCK (A,B,E,F)",
		"else",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// LOCK must precede the ALLOCATE of the loop it guards, as in Figure 5c.
	li := strings.Index(out, "LOCK (3,A,B)")
	ai := strings.Index(out, "ALLOCATE (3,")
	ai2 := strings.Index(out[li:], "ALLOCATE")
	if li < 0 || ai < 0 || ai2 < 0 {
		t.Fatalf("missing directives in rendering:\n%s", out)
	}
}

func TestAllocateString(t *testing.T) {
	a := &Allocate{Arms: []Arm{{3, 111}, {1, 4}}}
	if got, want := a.String(), "ALLOCATE (3,111) else (1,4)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestExitSuppressesLock(t *testing.T) {
	p := planFor(t, `
PROGRAM P
DIMENSION A(100), B(100)
DO I = 1, 100
  A(I) = 1.0
  IF (A(I) .GT. 50.0) EXIT
  DO J = 1, 100
    B(J) = A(I)
  END DO
END DO
END
`)
	inner := p.Analysis.Info.Root.Children[0].Children[0]
	if lk := lockFor(p, inner); lk != nil {
		t.Errorf("EXIT in scanned segment should suppress LOCK, got %v", lk)
	}
}

func TestLockArraysBetweenLoops(t *testing.T) {
	p := planFor(t, `
PROGRAM P
DIMENSION A(100), B(100), C(100)
DO I = 1, 100
  DO J = 1, 100
    A(J) = 1.0
  END DO
  B(I) = 2.0
  C(I) = 3.0
  DO K = 1, 100
    A(K) = B(I)
  END DO
END DO
END
`)
	outer := p.Analysis.Info.Root.Children[0]
	loopJ, loopK := outer.Children[0], outer.Children[1]
	if lk := lockFor(p, loopJ); lk != nil {
		t.Errorf("no arrays before first inner loop; got LOCK %v", lk)
	}
	lk := lockFor(p, loopK)
	if lk == nil {
		t.Fatal("expected LOCK before second inner loop")
	}
	if got := strings.Join(lk.Arrays, ","); got != "B,C" {
		t.Errorf("locked arrays = %s, want B,C", got)
	}
}

// Property tests over random loop shapes: PI(leaf) == 1, PI(parent) >
// PI(child) along every chain, PI(outermost of deepest chain) == chain
// height, and ALLOCATE chains mirror the ancestor path.
func TestPriorityProperties(t *testing.T) {
	f := func(shape uint16) bool {
		src := randomNestSource(uint64(shape))
		prog, err := fortran.Parse(src)
		if err != nil {
			return false
		}
		info, err := sem.Analyze(prog)
		if err != nil {
			return false
		}
		layout, err := mem.NewLayout(prog, mem.DefaultGeometry)
		if err != nil {
			return false
		}
		p := Build(locality.Analyze(info, layout, locality.DefaultParams))
		for _, l := range info.Loops {
			if l.IsLeaf() && p.PI[l] != 1 {
				return false
			}
			if l.Parent.Stmt != nil && p.PI[l.Parent] <= p.PI[l] {
				return false
			}
			if p.PI[l] != l.Height() {
				return false
			}
			// ALLOCATE arm count equals the nest depth of the loop.
			a := allocateFor(p, l)
			if a == nil || len(a.Arms) != l.Depth {
				return false
			}
			// Arms are strictly decreasing in PI and non-increasing in X.
			for i := 1; i < len(a.Arms); i++ {
				if a.Arms[i].PI >= a.Arms[i-1].PI {
					return false
				}
				if a.Arms[i].X > a.Arms[i-1].X {
					return false
				}
			}
			// Last arm is the loop's own (PI, X).
			last := a.Arms[len(a.Arms)-1]
			if last.PI != p.PI[l] || last.X != p.Analysis.ActiveSize(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomNestSource builds a random loop nest over a handful of arrays.
func randomNestSource(seed uint64) string {
	rng := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	var b strings.Builder
	b.WriteString("PROGRAM R\nDIMENSION A(64,8), V(256), W(100)\n")
	varNames := []string{"I", "J", "K", "L", "M", "N2", "I2", "J2"}
	vi := 0
	var gen func(depth int)
	gen = func(depth int) {
		v := varNames[vi%len(varNames)]
		vi++
		b.WriteString(strings.Repeat(" ", depth))
		b.WriteString("DO " + v + " = 1, 8\n")
		switch rng() % 3 {
		case 0:
			b.WriteString(strings.Repeat(" ", depth+1) + "V(" + v + ") = 1.0\n")
		case 1:
			b.WriteString(strings.Repeat(" ", depth+1) + "A(" + v + ",1) = 2.0\n")
		default:
			b.WriteString(strings.Repeat(" ", depth+1) + "W(" + v + ") = V(" + v + ")\n")
		}
		if depth < 3 {
			kids := int(rng() % 3) // 0..2 nested loops
			for i := 0; i < kids && vi < 8; i++ {
				gen(depth + 1)
			}
		}
		b.WriteString(strings.Repeat(" ", depth))
		b.WriteString("END DO\n")
	}
	n := int(rng()%2) + 1
	for i := 0; i < n && vi < 6; i++ {
		gen(0)
	}
	b.WriteString("END\n")
	return b.String()
}
