// Multiprog demonstrates the extension the paper leaves open ("the
// performance of CD in a multiprogramming environment is still to be
// evaluated"): several workloads share a fixed page-frame pool, fault
// service overlaps across jobs, and the memory manager swaps jobs under
// pressure. The same mix is run twice — all jobs under CD with their
// canonical directive sets, then all jobs under WS — and the makespans,
// faults and swap counts are compared.
//
// Run with: go run ./examples/multiprog [frames]   (default 80: moderate pressure; try 30 for severe)
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
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
	traces := map[string]*trace.Trace{}
	for _, name := range mix {
		w, err := workloads.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		c, err := workloads.Compile(w)
		if err != nil {
			log.Fatal(err)
		}
		traces[name] = c.Trace
		fmt.Println(c.Trace.Summary())
	}
	fmt.Printf("\nshared pool: %d frames\n", frames)

	// Run 1: every job under CD with its canonical directive set.
	cdJobs := make([]*vmsim.Job, len(mix))
	for i, name := range mix {
		w, _ := workloads.Get(name)
		cdJobs[i] = &vmsim.Job{
			Name:   name,
			Trace:  traces[name],
			Policy: policy.NewCD(w.DefaultSet().Selector(), 2),
		}
	}
	cdRes := vmsim.RunMulti(cdJobs, vmsim.MultiConfig{Frames: frames})
	fmt.Println("\n--- all jobs under CD ---")
	fmt.Println(cdRes)

	// Run 2: the same mix under the Working Set policy.
	wsJobs := make([]*vmsim.Job, len(mix))
	for i, name := range mix {
		wsJobs[i] = &vmsim.Job{
			Name:   name,
			Trace:  traces[name].RefsOnly(),
			Policy: policy.NewWS(1000),
		}
	}
	wsRes := vmsim.RunMulti(wsJobs, vmsim.MultiConfig{Frames: frames})
	fmt.Println("\n--- all jobs under WS (tau=1000) ---")
	fmt.Println(wsRes)

	fmt.Printf("\nmakespan: CD=%d WS=%d (%+.1f%%)\n",
		cdRes.Makespan, wsRes.Makespan,
		float64(wsRes.Makespan-cdRes.Makespan)/float64(cdRes.Makespan)*100)
}
