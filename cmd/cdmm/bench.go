package main

import (
	"flag"
	"fmt"

	"cdmm/internal/perf"
)

// benchFlags declares bench, which measures the simulation hot path and
// emits/compares machine-readable baselines (the CI perf-smoke job runs
// `cdmm bench -quick -compare BENCH_baseline.json`).
func benchFlags(fs *flag.FlagSet) func(string) error {
	quick := fs.Bool("quick", false, "short measurement windows (CI smoke mode)")
	out := fs.String("o", "", "write the measured baseline JSON to this file")
	compare := fs.String("compare", "", "compare against a baseline JSON file")
	threshold := fs.Float64("threshold", 0.25, "ns/ref regression fraction that fails the comparison")
	return func(string) error {
		cur, err := perf.Collect(*quick)
		if err != nil {
			return err
		}
		for _, c := range cur.Cases {
			fmt.Printf("%-14s %-8s refs=%-7d %8.2f ns/ref  %.3f allocs/ref  PF=%d\n",
				c.Name, c.Workload, c.Refs, c.NsPerRef, c.AllocsPerRef, c.Faults)
		}
		if *compare == "" {
			fmt.Print(perf.Gates(cur)) // -compare's report ends with them
		}
		if *out != "" {
			if err := perf.Save(*out, cur); err != nil {
				return err
			}
			fmt.Printf("baseline written to %s\n", *out)
		}
		if *compare != "" {
			base, err := perf.Load(*compare)
			if err != nil {
				return err
			}
			report, regressions := perf.Compare(base, cur, *threshold)
			fmt.Print(report)
			if len(regressions) > 0 {
				for _, r := range regressions {
					fmt.Println("REGRESSION:", r)
				}
				return fmt.Errorf("%d perf regression(s) vs %s", len(regressions), *compare)
			}
			fmt.Printf("no regressions vs %s (threshold +%.0f%%)\n", *compare, 100**threshold)
		}
		return nil
	}
}
