package sem

import (
	"sort"
	"strings"
	"testing"

	"cdmm/internal/fortran"
)

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

func analyze(t *testing.T, src string) *Info {
	t.Helper()
	prog, err := fortran.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

func TestLoopTreeFigure1(t *testing.T) {
	info := analyze(t, figure1Src)
	if len(info.Loops) != 3 {
		t.Fatalf("loops = %d, want 3", len(info.Loops))
	}
	outer := info.Root.Children[0]
	if outer.Depth != 1 {
		t.Errorf("outer depth = %d, want 1", outer.Depth)
	}
	if len(outer.Children) != 2 {
		t.Fatalf("outer children = %d, want 2", len(outer.Children))
	}
	for _, c := range outer.Children {
		if c.Depth != 2 {
			t.Errorf("inner loop depth = %d, want 2", c.Depth)
		}
		if c.Parent != outer {
			t.Errorf("inner loop parent wrong")
		}
	}
	if outer.MaxDepth() != 2 {
		t.Errorf("Δ = %d, want 2", outer.MaxDepth())
	}
	if outer.Height() != 2 {
		t.Errorf("height = %d, want 2", outer.Height())
	}
}

func TestRefOrderClassification(t *testing.T) {
	info := analyze(t, figure1Src)
	outer := info.Root.Children[0]
	loop20, loop30 := outer.Children[0], outer.Children[1]

	// E(I,K) inside loop 20 (K inner): column subscript K varies with the
	// deeper loop -> row-wise.
	for _, r := range loop20.Refs {
		if got := order(r); got != OrderRowWise {
			t.Errorf("%s in loop 20: order = %v, want row-wise", r.Array.Name, got)
		}
	}
	// G(K,I) inside loop 30 (K inner): row subscript varies with the deeper
	// loop -> column-wise.
	for _, r := range loop30.Refs {
		if got := order(r); got != OrderColumnWise {
			t.Errorf("%s in loop 30: order = %v, want column-wise", r.Array.Name, got)
		}
	}
}

func TestVectorAndDiagonalOrders(t *testing.T) {
	info := analyze(t, `
PROGRAM P
DIMENSION V(100), A(50,50)
DO I = 1, 50
  V(I) = A(I,I) + A(I,3) + A(3,I)
END DO
END
`)
	loop := info.Root.Children[0]
	byName := func(i int) *ArrayRef { return loop.Refs[i] }
	if got := order(byName(0)); got != OrderVector {
		t.Errorf("V(I): %v, want vector", got)
	}
	if got := order(byName(1)); got != OrderDiagonal {
		t.Errorf("A(I,I): %v, want diagonal", got)
	}
	if got := order(byName(2)); got != OrderColumnWise {
		t.Errorf("A(I,3): %v, want column-wise", got)
	}
	if got := order(byName(3)); got != OrderRowWise {
		t.Errorf("A(3,I): %v, want row-wise", got)
	}
}

func TestInvariantRef(t *testing.T) {
	info := analyze(t, `
PROGRAM P
DIMENSION V(10)
DO I = 1, 5
  X = V(3)
END DO
END
`)
	r := info.Root.Children[0].Refs[0]
	if got := order(r); got != OrderNone {
		t.Errorf("V(3): %v, want invariant", got)
	}
	if r.RowDriver != nil {
		t.Errorf("V(3) should have no row driver")
	}
}

func TestDriversAcrossLevels(t *testing.T) {
	info := analyze(t, `
PROGRAM P
DIMENSION A(64,64)
DO J = 1, 64
  DO I = 1, 64
    A(I,J) = 1.0
  END DO
END DO
END
`)
	outer := info.Root.Children[0]
	inner := outer.Children[0]
	r := inner.Refs[0]
	if r.RowDriver != inner {
		t.Errorf("row driver should be inner loop, got %v", r.RowDriver.Label())
	}
	if r.ColDriver != outer {
		t.Errorf("col driver should be outer loop, got %v", r.ColDriver.Label())
	}
	if order(r) != OrderColumnWise {
		t.Errorf("A(I,J) I-inner should be column-wise, got %v", order(r))
	}
}

func TestDistinctKeyCounting(t *testing.T) {
	// The paper's example: W = V(I) + V(I+1) + V(J) has three distinct
	// indexed variables.
	info := analyze(t, `
PROGRAM P
DIMENSION V(600)
DO I = 1, 100
  DO J = 1, 100
    W = V(I) + V(I+1) + V(J) + V(I)
  END DO
END DO
END
`)
	inner := info.Root.Children[0].Children[0]
	if got := DistinctKeys(inner.Refs); got != 3 {
		t.Errorf("X = %d, want 3 (V(I), V(I+1), V(J); duplicate V(I) merges)", got)
	}
}

func TestXrXcCounting(t *testing.T) {
	// The paper's example: A(I,J)+A(I+1,J)+A(I,J+1)+A(I+1,J+1):
	// Xr = 2 (I, I+1), Xc = 2 (J, J+1).
	info := analyze(t, `
PROGRAM P
DIMENSION A(200,200)
DO J = 1, 199
  DO I = 1, 199
    W = A(I,J) + A(I+1,J) + A(I,J+1) + A(I+1,J+1)
  END DO
END DO
END
`)
	inner := info.Root.Children[0].Children[0]
	if got := DistinctRowKeys(inner.Refs); got != 2 {
		t.Errorf("Xr = %d, want 2", got)
	}
	if got := DistinctColKeys(inner.Refs); got != 2 {
		t.Errorf("Xc = %d, want 2", got)
	}
	if got := DistinctKeys(inner.Refs); got != 4 {
		t.Errorf("X = %d, want 4", got)
	}
}

func TestSemanticErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"undeclared array", "PROGRAM P\nA(1) = 0.0\nEND\n"},
		{"wrong arity", "PROGRAM P\nDIMENSION A(5,5)\nA(1) = 0.0\nEND\n"},
		{"array without subscripts", "PROGRAM P\nDIMENSION A(5)\nX = A\nEND\n"},
		{"real loop variable", "PROGRAM P\nDO X = 1, 5\nY = 1.0\nEND DO\nEND\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := fortran.Parse(c.src)
			if err != nil {
				t.Fatalf("parse should succeed, sem should fail: %v", err)
			}
			if _, err := Analyze(prog); err == nil {
				t.Errorf("expected semantic error")
			}
		})
	}
}

// subtreeRefs returns all array references in l's body including nested
// loops, in source order.
func subtreeRefs(l *Loop) []*ArrayRef {
	out := append([]*ArrayRef(nil), l.Refs...)
	for _, c := range l.Children {
		out = append(out, subtreeRefs(c)...)
	}
	return out
}

// order classifies one reference's Θ through the shared rule.
func order(r *ArrayRef) RefOrder {
	o, _, _ := Classify(r.Array.IsVector(), r.RowDriver, r.ColDriver)
	return o
}

func TestEnclosesAndSubtreeRefs(t *testing.T) {
	info := analyze(t, figure1Src)
	outer := info.Root.Children[0]
	loop20 := outer.Children[0]
	if !outer.Encloses(loop20) {
		t.Error("outer should enclose loop 20")
	}
	if loop20.Encloses(outer) {
		t.Error("loop 20 should not enclose outer")
	}
	if !outer.Encloses(outer) {
		t.Error("a loop encloses itself")
	}
	refs := subtreeRefs(outer)
	var names []string
	for _, r := range refs {
		names = append(names, r.Array.Name)
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != "E,F,G,H" {
		t.Errorf("subtree ref arrays = %s, want E,F,G,H", got)
	}
}

func TestDeepNestDepths(t *testing.T) {
	info := analyze(t, `
PROGRAM P
DIMENSION A(10,10)
DO I = 1, 2
  DO J = 1, 2
    DO K = 1, 2
      A(K,J) = FLOAT(I)
    END DO
  END DO
END DO
END
`)
	if len(info.Loops) != 3 {
		t.Fatalf("loops = %d", len(info.Loops))
	}
	depths := []int{1, 2, 3}
	for i, l := range info.Loops {
		if l.Depth != depths[i] {
			t.Errorf("loop %d depth = %d, want %d", i, l.Depth, depths[i])
		}
	}
	if got := info.Root.Children[0].MaxDepth(); got != 3 {
		t.Errorf("Δ = %d, want 3", got)
	}
	if got := info.Root.Children[0].Height(); got != 3 {
		t.Errorf("height = %d, want 3", got)
	}
}

func TestRefsOutsideLoops(t *testing.T) {
	info := analyze(t, "PROGRAM P\nDIMENSION V(5)\nV(1) = 2.0\nEND\n")
	if len(info.Root.Refs) != 1 {
		t.Fatalf("root refs = %d, want 1", len(info.Root.Refs))
	}
	if order(info.Root.Refs[0]) != OrderNone {
		t.Errorf("ref outside loops should be invariant")
	}
}
