package main

import (
	"flag"
	"fmt"

	"cdmm/internal/core"
	"cdmm/internal/report"
)

// profileFlags declares profile, which runs the policy sweep and
// renders side-by-side fault-timeline and residency sparklines for CD
// versus the tuned LRU and WS baselines — the time-resolved view of
// where the faults and the memory go.
func profileFlags(fs *flag.FlagSet) func(string) error {
	buckets := fs.Int("buckets", 64, "virtual-time buckets per timeline strip")
	j := registerJFlag(fs)
	of := registerObsFlags(fs)
	return withProgram(func(p *core.Program) error {
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
