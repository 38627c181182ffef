package kernel

import (
	"testing"

	"cdmm/internal/engine"
)

// FuzzAdmission drives the admission/suspend/resume state machine with
// fuzz-chosen populations, pool sizes and chaos mixes. Whatever the
// geometry, a checked run must end with zero invariant violations and
// every tenant in a terminal state (frame conservation and reachability
// are exactly what finalChecks asserts). Flag bit 3 runs the same specs
// as a job list under caller-built CD, WS and LRU policies, the bits
// above it picking the rotation.
func FuzzAdmission(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16), uint8(0))
	f.Add(uint64(2), uint8(3), uint8(2), uint8(7))
	f.Add(uint64(99), uint8(15), uint8(40), uint8(5))
	f.Add(uint64(12345), uint8(1), uint8(3), uint8(2))
	f.Add(uint64(7), uint8(5), uint8(12), uint8(8|16|3))
	f.Fuzz(func(t *testing.T, seed uint64, tenants, frames, flags uint8) {
		cfg := Config{
			Tenants: 1 + int(tenants%16),
			// Explicit (often tiny) pools exercise the oversize-shed path
			// and the MPL >= 1 admission bypass.
			Frames:  2 + int(frames%48),
			Seed:    seed,
			Scale:   0.1,
			Quantum: 64,
			Checked: true,
			Chaos: Chaos{
				Kill:      flags&1 != 0,
				Oscillate: flags&2 != 0,
				Corrupt:   flags&4 != 0,
				Intensity: 0.8,
			},
		}
		n := cfg.Tenants
		if flags&8 != 0 {
			cfg.Tenants, cfg.Jobs = 0, synthJobs(seed, n, cfg.Scale, int(flags>>4))
		}
		res, err := Run(cfg, engine.New(1))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("violations: %v", res.Violations)
		}
		if res.Done+res.Shed != int64(n) {
			t.Fatalf("done=%d shed=%d want sum %d (unreachable tenants)", res.Done, res.Shed, n)
		}
	})
}
