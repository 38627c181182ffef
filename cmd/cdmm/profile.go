package main

import (
	"flag"
	"fmt"

	"cdmm/internal/core"
	"cdmm/internal/report"
)

// cmdProfile runs the policy sweep and renders side-by-side fault-timeline
// and residency sparklines for CD versus the tuned LRU and WS baselines —
// the time-resolved view of where the faults and the memory go.
func cmdProfile(args []string) error {
	return withProgram(args, func(p *core.Program, rest []string) error {
		fs := flag.NewFlagSet("profile", flag.ContinueOnError)
		buckets := fs.Int("buckets", 64, "virtual-time buckets per timeline strip")
		j := registerJFlag(fs)
		of := registerObsFlags(fs)
		if err := fs.Parse(rest); err != nil {
			return err
		}
		return of.withObs(func() error {
			eng := newEngine(*j, of.observer) // after activate: a -serve tracker attaches here
			fmt.Println(p.Summary())
			out, err := report.TimelineReport(eng, p, *buckets)
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		})
	})
}
