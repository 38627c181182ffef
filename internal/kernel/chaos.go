package kernel

import (
	"strconv"

	"cdmm/internal/chaos"
	"cdmm/internal/trace"
)

// Chaos selects the kernel's fault injection. Every decision is drawn
// from a PRNG derived from (seed, fault, identity) — the same discipline
// as the internal/chaos matrix — so a chaotic run is exactly as
// reproducible as a clean one.
type Chaos struct {
	// Kill abruptly terminates tenants mid-run; a killed tenant's frames
	// are reclaimed, its stream rewinds to the start, and it re-enters
	// the admission queue (bounded by maxRestarts, after which further
	// kill points are ignored).
	Kill bool
	// Oscillate drives each shard's frame capacity with a square wave,
	// modeling pressure from outside the simulated population.
	Oscillate bool
	// Corrupt perturbs a fraction of tenants' directive streams with the
	// registered chaos injectors, exercising degraded mode under load.
	Corrupt bool
	// Trip injects a synthetic invariant violation ("chaos-trip") into
	// each shard at a seeded quantum, exercising the violation path and
	// the flight recorder end to end. Unlike the other faults it always
	// fails the run — it is a test of the incident machinery, so the
	// "all" chaos selection does not include it.
	Trip bool
	// Intensity is the usual [0, 1] dial; zero with any fault enabled
	// defaults to 0.4.
	Intensity float64
}

// enabled reports whether any fault is selected.
func (c *Chaos) enabled() bool { return c.Kill || c.Oscillate || c.Corrupt || c.Trip }

// intensity returns the effective dial.
func (c *Chaos) intensity() float64 {
	if c.Intensity > 0 {
		return c.Intensity
	}
	return 0.4
}

// corruptInjectors are the injectors kernel corruption draws from, all
// table-level (chaos.Fault.Retable): the first two trip the CD validator
// (degraded mode), the third silently mis-sizes allocations — both
// failure shapes the kernel must absorb.
var corruptInjectors = []string{"corrupt-priorities", "unknown-segment", "stale-directives"}

// planTenantChaos fixes a tenant's chaos plan at kernel start: whether
// and when it is killed, and whether its directive stream is corrupted.
func planTenantChaos(cfg *Config, t *tenant) {
	c := &cfg.Chaos
	if !c.enabled() {
		return
	}
	in := c.intensity()
	t.maxRestarts = cfg.MaxRestarts
	if c.Kill {
		rng := chaos.NewRand(chaos.DeriveSeed(cfg.Seed, "kill", t.spec.Name))
		if rng.Bool(0.10 + 0.30*in) {
			t.killAt = 1 + int64(rng.Intn(maxInt(1, t.spec.Refs)))
		}
	}
	if c.Corrupt {
		rng := chaos.NewRand(chaos.DeriveSeed(cfg.Seed, "corrupt", t.spec.Name))
		if rng.Bool(0.10 + 0.20*in) {
			t.corrupt = corruptInjectors[rng.Intn(len(corruptInjectors))]
		}
	}
}

// planShardTrip draws the shard's trip-wire quantum: every shard trips
// once, early (quanta 8-31), so even quick scaled-down runs reach it. A
// pure function of (seed, shard), independent of scheduling and -j.
func planShardTrip(cfg *Config, shardIdx int) int64 {
	if !cfg.Chaos.Trip {
		return 0
	}
	rng := chaos.NewRand(chaos.DeriveSeed(cfg.Seed, "trip", strconv.Itoa(shardIdx)))
	return 8 + int64(rng.Intn(24))
}

// tenantSource returns the stream a tenant replays: its spec, generated
// on demand, under side tables the chaos plan's injector perturbed, if
// any. The perturbing PRNG is derived from the tenant identity alone, so
// admission order cannot change what a tenant replays.
func tenantSource(cfg *Config, t *tenant) trace.Source {
	if t.corrupt == "" {
		return &t.spec
	}
	f, err := chaos.Get(t.corrupt)
	if err != nil || f.Retable == nil {
		return &t.spec
	}
	rng := chaos.NewRand(chaos.DeriveSeed(cfg.Seed, "perturb", t.corrupt, t.spec.Name))
	return retabled{Source: &t.spec, tables: f.Retable(t.spec.Tables(), t.spec.Meta(), rng, cfg.Chaos.intensity())}
}

// retabled is a source under replaced side tables; the stream is the
// wrapped source's.
type retabled struct {
	trace.Source
	tables *trace.SideTables
}

// Tables implements trace.Source.
func (r retabled) Tables() *trace.SideTables { return r.tables }

// oscillator is a per-shard square wave over frame capacity: full frames
// for half a period, floor frames for the other half. The phase is a
// pure function of the clock, so suspends/resumes cannot drift it.
type oscillator struct {
	period int64
	floor  int
}

// newOscillator draws a shard's wave from the kernel seed. The floor
// keeps at least a quarter of the shard's frames (and never less than 2)
// so a starved shard still makes progress; aging covers the rest.
func newOscillator(cfg *Config, shardIdx, frames int) *oscillator {
	if !cfg.Chaos.Oscillate {
		return nil
	}
	rng := chaos.NewRand(chaos.DeriveSeed(cfg.Seed, "oscillate", strconv.Itoa(shardIdx)))
	in := cfg.Chaos.intensity()
	o := &oscillator{
		period: (8 + int64(rng.Intn(25))) * 2000,
		floor:  maxInt(2, frames/4+int(float64(frames)/2*(1-in))),
	}
	if o.floor > frames {
		o.floor = frames
	}
	return o
}

// capAt returns the capacity at clock t.
func (o *oscillator) capAt(t int64, frames int) int {
	if o == nil {
		return frames
	}
	if (t/o.period)%2 == 1 {
		return o.floor
	}
	return frames
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
