// Advisor demonstrates the compiler-side use of the paper's locality
// analysis: the advisor flags a row-wise traversal in a kernel, and the
// example then *applies* the suggested loop interchange and measures the
// difference under every policy — showing that the best memory-management
// policy is the reference pattern itself.
//
// Run with: go run ./examples/advisor
package main

import (
	"fmt"
	"log"

	"cdmm/internal/advisor"
	"cdmm/internal/core"
	"cdmm/internal/policy"
	"cdmm/internal/vmsim"
)

// rowwise is a transpose-accumulate kernel written with the row index
// outermost — the natural way to write it, and the wrong way for
// column-major storage.
const rowwise = `
PROGRAM ROWW
DIMENSION A(256,24), CS(256)
DO 20 J = 1, 24
  DO 10 I = 1, 256
    A(I,J) = FLOAT(I + J)
10 CONTINUE
20 CONTINUE
DO 100 IT = 1, 4
  DO 40 I = 1, 256
    CS(I) = 0.0
    DO 30 J = 1, 24
      CS(I) = CS(I) + A(I,J)
30  CONTINUE
40 CONTINUE
100 CONTINUE
END
`

// colwise is the same computation after the advised interchange: the
// accumulation loop now walks columns.
const colwise = `
PROGRAM COLW
DIMENSION A(256,24), CS(256)
DO 20 J = 1, 24
  DO 10 I = 1, 256
    A(I,J) = FLOAT(I + J)
10 CONTINUE
20 CONTINUE
DO 100 IT = 1, 4
  DO 35 I = 1, 256
    CS(I) = 0.0
35 CONTINUE
  DO 40 J = 1, 24
    DO 30 I = 1, 256
      CS(I) = CS(I) + A(I,J)
30  CONTINUE
40 CONTINUE
100 CONTINUE
END
`

func main() {
	before, err := core.CompileSource("", rowwise)
	if err != nil {
		log.Fatal(err)
	}
	after, err := core.CompileSource("", colwise)
	if err != nil {
		log.Fatal(err)
	}
	trBefore, err := before.Trace()
	if err != nil {
		log.Fatal(err)
	}
	trAfter, err := after.Trace()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- advisor findings on the original kernel ---")
	fmt.Print(advisor.Render(advisor.Analyze(before.Analysis)))

	fmt.Println("\n--- advisor findings after the interchange ---")
	fmt.Print(advisor.Render(advisor.Analyze(after.Analysis)))

	fmt.Println("\n--- effect on every policy (same computation, reordered) ---")
	fmt.Printf("%-22s %12s %12s\n", "policy", "row-wise PF", "col-wise PF")
	for _, mk := range []func() policy.Policy{
		func() policy.Policy { return policy.NewLRU(8) },
		func() policy.Policy { return policy.NewWS(2000) },
	} {
		p1, p2 := mk(), mk()
		r1, r2 := vmsim.Run(trBefore, p1), vmsim.Run(trAfter, p2)
		fmt.Printf("%-22s %12d %12d\n", p1.Name(), r1.Faults, r2.Faults)
	}
	cd1 := vmsim.Run(trBefore, policy.NewCD(policy.SelectLevel(2), 2))
	cd2 := vmsim.Run(trAfter, policy.NewCD(policy.SelectLevel(2), 2))
	fmt.Printf("%-22s %12d %12d\n", "CD (level 2)", cd1.Faults, cd2.Faults)
	fmt.Printf("\nCD space-time: %.4g -> %.4g (%.1fx better after interchange)\n",
		cd1.ST(), cd2.ST(), cd1.ST()/cd2.ST())
	fmt.Println("\nEven the best policy cannot fix a bad reference order; the")
	fmt.Println("compiler analysis that feeds CD's directives also tells the")
	fmt.Println("programmer how to remove the locality problem at the source.")
}
