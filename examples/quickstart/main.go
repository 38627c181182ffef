// Quickstart: compile a small FORTRAN-subset program, look at the memory
// directives the compiler inserts, and compare the Compiler Directed
// policy against LRU and the Working Set policy on its reference trace.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cdmm/internal/core"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/vmsim"
)

// A miniature numerical program: a matrix is initialized column-wise, a
// long vector-smoothing phase runs with a tiny locality, and a row-wise
// reduction pass needs the whole row span at once — three phases with very
// different memory requirements, which is exactly the structure the CD
// policy exploits.
const src = `
PROGRAM QUICK
DIMENSION A(128,16), V(512), RS(128)
DO 20 J = 1, 16
  DO 10 I = 1, 128
    A(I,J) = FLOAT(I) * 0.5 + FLOAT(J)
10 CONTINUE
20 CONTINUE
DO 40 K = 1, 30
  DO 30 L = 2, 512
    V(L) = 0.5 * (V(L) + V(L-1)) + 1.0
30 CONTINUE
40 CONTINUE
DO 70 I = 1, 128
  RS(I) = 0.0
  DO 60 J = 1, 16
    RS(I) = RS(I) + A(I,J)
60 CONTINUE
70 CONTINUE
END
`

func main() {
	prog, err := core.CompileSource("", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(prog.Summary())
	fmt.Println()

	fmt.Println("--- memory directives inserted by the compiler ---")
	fmt.Print(prog.RenderDirectives())
	fmt.Println()

	fmt.Println("--- locality structure (Figure 1 style) ---")
	fmt.Print(prog.RenderLocalityTree())
	fmt.Println()

	tr, err := prog.Trace()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- simulation:", tr.Summary(), "---")

	// CD honoring the level-2 directive stratum.
	cd := vmsim.Run(tr, policy.NewCD(policy.SelectLevel(2), 2))
	fmt.Println(cd)

	// Baselines on the same reference string.
	refs := tr.RefsOnly()
	for _, pol := range []policy.Policy{
		policy.NewLRU(8),
		policy.NewLRU(32),
		policy.NewWS(1000),
	} {
		fmt.Println(vmsim.Run(refs, pol))
	}

	// The tuned baselines: best LRU allocation and best WS window.
	lru, _ := sweep.NewLRU(tr)
	m, st := lru.MinST()
	fmt.Printf("best LRU over all allocations: m=%d ST=%.4g\n", m, st)
	ws, _ := sweep.NewWS(tr)
	tau, res, _ := ws.MinST()
	fmt.Printf("best WS over all windows:      tau=%d ST=%.4g\n", tau, res.ST())
	fmt.Printf("CD space-time advantage: %.0f%% vs best LRU, %.0f%% vs best WS\n",
		(st-cd.ST())/cd.ST()*100, (res.ST()-cd.ST())/cd.ST()*100)
}
