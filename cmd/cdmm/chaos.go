package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"cdmm/internal/chaos"
	"cdmm/internal/experiments"
)

// chaosFlags declares chaos, the fault-injection matrix: program ×
// fault class × intensity, each cell a checked simulation of CD with
// directive validation enabled over a seeded perturbation of the trace
// (or of the machine under it).
func chaosFlags(fs *flag.FlagSet) func(string) error {
	seed := fs.Uint64("seed", 1, "base seed for the fault injectors")
	quick := fs.Bool("quick", false, "smoke mode: two programs, one intensity")
	progs := fs.String("progs", "", "comma-separated program[/set] list (default: the study's four)")
	intensities := fs.String("intensity", "", "comma-separated fault intensities in [0,1] (default 0.1,0.4)")
	faults := fs.String("faults", "", "comma-separated fault names (default: all; see -list)")
	list := fs.Bool("list", false, "list the registered fault injectors and exit")
	j := registerJFlag(fs)
	of := registerObsFlags(fs)
	return func(string) error {
		if *list {
			for _, f := range chaos.Faults() {
				fmt.Printf("%-20s %-10s %s\n", f.Name, f.Class, f.Desc)
			}
			return nil
		}

		cfg := experiments.ChaosConfig{Seed: *seed}
		if *quick {
			cfg.Variants = []experiments.Variant{{Program: "MAIN", Set: "MAIN"}, {Program: "TQL", Set: "TQL1"}}
			cfg.Intensities = []float64{0.4}
		}
		if *progs != "" {
			cfg.Variants = nil
			for _, p := range strings.Split(*progs, ",") {
				prog, set, _ := strings.Cut(strings.TrimSpace(p), "/")
				if set == "" {
					set = prog
				}
				cfg.Variants = append(cfg.Variants, experiments.Variant{Program: prog, Set: set})
			}
		}
		if *intensities != "" {
			cfg.Intensities = nil
			for _, s := range strings.Split(*intensities, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil || v < 0 || v > 1 {
					return fmt.Errorf("chaos: bad intensity %q (want a number in [0,1])", s)
				}
				cfg.Intensities = append(cfg.Intensities, v)
			}
		}
		if *faults != "" {
			cfg.Faults = nil
			for _, name := range strings.Split(*faults, ",") {
				name = strings.TrimSpace(name)
				if _, err := chaos.Get(name); err != nil {
					return err
				}
				cfg.Faults = append(cfg.Faults, name)
			}
		}

		finish, err := of.activate()
		if err != nil {
			return err
		}
		eng := newEngine(*j, of.observer)
		rows, err := experiments.ChaosMatrix(eng, cfg)
		if err != nil {
			finish()
			return err
		}
		fmt.Print(experiments.RenderChaos(rows))

		broken := 0
		for _, r := range rows {
			if r.Err != "" {
				broken++
			}
		}
		if err := finish(); err != nil {
			return err
		}
		if broken > 0 {
			return fmt.Errorf("chaos: %d of %d cells broke the simulator (see STATUS column)", broken, len(rows))
		}
		return nil
	}
}
