package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cdmm/internal/kernel"
)

// kernelFlags declares kernel, the sharded multiprogrammed CD kernel:
// thousands of synthesized tenants over one overcommitted frame pool,
// with admission control, pressure-driven reclamation and aging — the
// paper's §4 operating-system component at population scale.
func kernelFlags(fs *flag.FlagSet) func(string) error {
	tenants := fs.Int("tenants", 1000, "tenant population size")
	frames := fs.Int("frames", 0, "global frame pool (0 = derive from -overcommit)")
	overcommit := fs.Float64("overcommit", 4, "declared-estimate-to-frames ratio when -frames is 0")
	shards := fs.Int("shards", 0, "shard count, at most 4096 (0 = ~1 per 256 tenants; fixes the result, not -j)")
	seed := fs.Uint64("seed", 1, "base seed for tenant synthesis and chaos")
	pool := fs.String("pool", "cd", "per-tenant policy: cd, lru, ws")
	level := intFlagMin(fs, "level", 2, 1, "CD directive-set stratum `N` (at least 1)")
	quantum := fs.Int("quantum", 512, "scheduler quantum in references")
	chaosSel := fs.String("chaos", "", "comma-separated faults: kill, oscillate, corrupt, trip (or 'all'; trip always fails the run)")
	intensity := fs.Float64("intensity", 0.4, "chaos intensity in [0,1]")
	checked := fs.Bool("checked", true, "verify kernel-wide invariants during and after the run")
	quick := fs.Bool("quick", false, "smoke mode: quarter-length tenant workloads")
	memCeil := fs.Int("memceil", 0, "fail if peak RSS exceeds this many MiB (Linux VmHWM; 0 = no check)")
	telemetry := fs.Bool("telemetry", false, "collect the telemetry plane and print its histograms (implied by -incident-dir)")
	topN := fs.Int("top", 0, "print the top N tenants by faults, frames and displacements")
	incidentDir := fs.String("incident-dir", "", "write flight-recorder incident dumps (JSONL) into this directory")
	j := registerJFlag(fs)
	of := registerObsFlags(fs)
	return func(string) error {
		cfg := kernel.Config{
			Tenants:    *tenants,
			Frames:     *frames,
			Overcommit: *overcommit,
			Shards:     *shards,
			Seed:       *seed,
			Pool:       *pool,
			Level:      *level,
			Quantum:    *quantum,
			Checked:    *checked,
			// Set even without -chaos, so Run rejects an out-of-range value.
			Chaos: kernel.Chaos{Intensity: *intensity},
		}
		if *quick {
			cfg.Scale = 0.25
		}
		if *chaosSel != "" {
			for _, name := range strings.Split(*chaosSel, ",") {
				switch strings.TrimSpace(name) {
				case "kill":
					cfg.Chaos.Kill = true
				case "oscillate":
					cfg.Chaos.Oscillate = true
				case "corrupt":
					cfg.Chaos.Corrupt = true
				case "trip":
					cfg.Chaos.Trip = true
				case "all":
					cfg.Chaos.Kill, cfg.Chaos.Oscillate, cfg.Chaos.Corrupt = true, true, true
				default:
					return fmt.Errorf("kernel: unknown chaos fault %q (want kill, oscillate, corrupt, trip or all)", name)
				}
			}
		}

		// Any telemetry consumer turns the plane on, and only those print
		// it; an unwatched kernel pays nothing for it. A served run also
		// collects it, to publish. -top ranks the per-tenant results and
		// needs no plane.
		cfg.Telemetry = *telemetry || *incidentDir != ""
		if served != nil {
			cfg.Publish = served.Kernel()
		}

		return of.withObs(func() error {
			eng := newEngine(*j, of.observer)
			start := time.Now()
			res, err := kernel.Run(cfg, eng)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			fmt.Println(res)
			if cfg.Telemetry {
				fmt.Print(res.Telemetry.RenderHists())
			}
			if *topN > 0 {
				fmt.Print(res.RenderTop(*topN))
			}
			if *incidentDir != "" {
				if err := writeIncidents(*incidentDir, res); err != nil {
					return err
				}
			}
			if s := elapsed.Seconds(); s > 0 {
				fmt.Fprintf(os.Stderr, "kernel: %d refs in %.2fs (%.1fM refs/s aggregate)\n",
					res.Refs, s, float64(res.Refs)/s/1e6)
			}
			if served != nil {
				served.Explain().Put("kernel/"+res.Pool, res.Ledger(256))
			}
			if err := checkMemCeil(*memCeil, "kernel memory must grow with the tenant count alone, never with the references tenants generate"); err != nil {
				return err
			}
			if n := len(res.Violations); n > 0 {
				return fmt.Errorf("kernel: %d invariant violations (first: %s)", n, res.Violations[0])
			}
			if res.Starved > 0 {
				return fmt.Errorf("kernel: %d starved resumes (max suspend wait %d exceeds bound %d)",
					res.Starved, res.MaxSuspendWait, res.StarveBound)
			}
			return nil
		})
	}
}

// writeIncidents dumps each flight-recorder incident to its own JSONL
// file under dir. Filenames are deterministic — (shard, seq, trigger) —
// so a re-run with the same seed overwrites rather than accumulates.
func writeIncidents(dir string, res *kernel.Result) error {
	if len(res.Incidents) == 0 {
		fmt.Printf("incidents: none\n")
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-incident-dir: %w", err)
	}
	for i := range res.Incidents {
		in := &res.Incidents[i]
		file, err := os.Create(filepath.Join(dir, in.Filename()))
		if err != nil {
			return fmt.Errorf("-incident-dir: %w", err)
		}
		werr := in.WriteJSONL(file)
		if cerr := file.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("-incident-dir: %w", werr)
		}
	}
	fmt.Printf("incidents: %d written to %s (%d dropped at the per-shard cap)\n",
		len(res.Incidents), dir, res.IncidentsDropped)
	return nil
}
