// Multiprog demonstrates the extension the paper leaves open ("the
// performance of CD in a multiprogramming environment is still to be
// evaluated"): several workloads share a fixed page-frame pool on the
// multiprogramming kernel, fault service overlaps across jobs, and the
// kernel suspends jobs under pressure. The same mix is run twice — all
// jobs under CD with their canonical directive sets, then all jobs under
// WS — and the completion times, faults and suspensions are compared.
//
// Run with: go run ./examples/multiprog [frames]   (default 80: moderate pressure; try 60 for severe)
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"cdmm/internal/engine"
	"cdmm/internal/kernel"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

func main() {
	frames := 80
	if len(os.Args) > 1 {
		f, err := strconv.Atoi(os.Args[1])
		if err != nil {
			log.Fatalf("bad frame count %q: %v", os.Args[1], err)
		}
		frames = f
	}

	mix := []string{"TQL", "HWSCRT", "MAIN"}
	var progs []*workloads.Program
	var traces []*trace.Trace
	for _, name := range mix {
		w, err := workloads.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		c, err := workloads.Compile(name)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := c.Trace()
		if err != nil {
			log.Fatal(err)
		}
		progs = append(progs, w)
		traces = append(traces, tr)
		fmt.Println(tr.Summary())
	}
	fmt.Printf("\nshared pool: %d frames\n", frames)

	run := func(title string, pol func(*workloads.Program) policy.Policy) int64 {
		jobs := make([]kernel.Job, len(progs))
		for i, w := range progs {
			jobs[i] = kernel.Job{Source: traces[i], Policy: pol(w)}
		}
		res, err := kernel.Run(kernel.Config{Jobs: jobs, Frames: frames, Checked: true}, engine.New(1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- all jobs under %s ---\n", title)
		var done int64
		for _, j := range res.PerTenant {
			fmt.Printf("  %-10s PF=%-6d MEM=%6.2f finished@%d suspends=%d\n",
				j.Name, j.Faults, float64(j.MemSum)/float64(j.Refs), j.Finished, j.Swaps)
			done = max(done, j.Finished)
		}
		fmt.Printf("  completed@%d idle=%d suspends=%d violations=%d\n", done, res.Idle, res.Suspends, len(res.Violations))
		return done
	}
	// Run 1: every job under CD with its canonical directive set.
	cd := run("CD", func(w *workloads.Program) policy.Policy {
		return policy.NewCD(w.DefaultSet().Selector(), 2)
	})
	// Run 2: the same mix under the Working Set policy.
	ws := run("WS (tau=1000)", func(*workloads.Program) policy.Policy { return policy.NewWS(1000) })

	fmt.Printf("\ncompletion: CD=%d WS=%d (%+.1f%%)\n", cd, ws, float64(ws-cd)/float64(cd)*100)
}
