// Policycompare runs every policy over one workload's reference trace and
// prints the fault and space-time curves: LRU and OPT across allocations,
// WS across window sizes, and CD across directive-set strata — the raw
// material behind the paper's Tables 2-4.
//
// Run with: go run ./examples/policycompare [program]   (default CONDUCT)
package main

import (
	"fmt"
	"log"
	"os"

	"cdmm/internal/core"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

func main() {
	name := "CONDUCT"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	w, err := workloads.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := core.CompileSource(w.Name, w.Source)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := prog.Trace()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tr.Summary())

	lru, _ := sweep.NewLRU(tr)
	ws, _ := sweep.NewWS(tr)
	refs := tr.RefsOnly()
	pages := tr.Pages()

	// LRU and OPT across a ladder of allocations.
	fmt.Println("\nallocation   LRU-PF   OPT-PF     LRU-ST")
	v := lru.V
	for _, m := range ladder(v) {
		opt := vmsim.Run(refs, policy.NewOPT(pages, m))
		fmt.Printf("%10d %8d %8d %10.4g\n", m, lru.Faults(m), opt.Faults, lru.ST(m))
	}
	mBest, stBest := lru.MinST()
	fmt.Printf("LRU minimum: ST=%.4g at m=%d\n", stBest, mBest)

	// WS across a ladder of windows.
	fmt.Println("\n       tau    WS-PF    WS-MEM      WS-ST")
	for _, tau := range ladder(tr.Refs) {
		r, err := ws.Run(tau)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10d %8d %9.2f %10.4g\n", tau, r.Faults, r.MEM(), r.ST())
	}
	tauBest, wsBest, err := ws.MinST()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WS minimum: ST=%.4g at tau=%d\n", wsBest.ST(), tauBest)

	// CD across directive strata, plus the workload's canonical set.
	fmt.Println("\n  CD level    CD-PF    CD-MEM      CD-ST")
	for lvl := 1; lvl <= prog.MaxPI(); lvl++ {
		r := vmsim.Run(tr, policy.NewCD(policy.SelectLevel(lvl), 2))
		fmt.Printf("%10d %8d %9.2f %10.4g\n", lvl, r.Faults, r.MEM(), r.ST())
	}
	set := w.DefaultSet()
	canonical := vmsim.Run(tr, policy.NewCD(set.Selector(), 2))
	fmt.Printf("canonical set %q: PF=%d MEM=%.2f ST=%.4g\n",
		set.Name, canonical.Faults, canonical.MEM(), canonical.ST())
	fmt.Printf("\nCD vs best LRU: %+.0f%% ST   CD vs best WS: %+.0f%% ST\n",
		(stBest-canonical.ST())/canonical.ST()*100,
		(wsBest.ST()-canonical.ST())/canonical.ST()*100)
}

// ladder yields a small geometric ladder of points up to n.
func ladder(n int) []int {
	var out []int
	for x := 2; x < n; x *= 2 {
		out = append(out, x)
	}
	out = append(out, n)
	return out
}
