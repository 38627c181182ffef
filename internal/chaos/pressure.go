package chaos

import (
	"cdmm/internal/mem"
	"cdmm/internal/policy"
)

// Spike is one capacity excursion: during references [From, To) the
// machine can give the program at most Cap frames.
type Spike struct {
	From, To int
	Cap      int
}

// Schedule is a deterministic capacity timeline for a machine-class
// fault: Total frames normally, overridden by any covering spike. It
// models multiprogramming pressure — other jobs arriving and departing —
// without simulating the other jobs.
type Schedule struct {
	Total  int
	Spikes []Spike
}

// Cap returns the capacity in frames at reference index i.
func (s *Schedule) Cap(i int) int {
	for _, sp := range s.Spikes {
		if i >= sp.From && i < sp.To {
			return sp.Cap
		}
	}
	return s.Total
}

// memPressure builds the mem-pressure fault's schedule: 1-4 spikes (more
// with higher intensity) of refs/8 references each, during which other
// jobs leave the program only a handful of frames — 1-4 at full
// intensity, up to ~15 at low intensity. Spike caps are absolute (not a
// fraction of the address space) because CD resident sets are a few
// pages; fractional shrinks would never bite.
func memPressure(v, refs int, rng *Rand, intensity float64) *Schedule {
	if v < 1 {
		v = 1
	}
	s := &Schedule{Total: v}
	if refs <= 0 || intensity <= 0 {
		return s
	}
	n := 1 + int(intensity*3)
	width := refs / 8
	if width < 1 {
		width = 1
	}
	for i := 0; i < n; i++ {
		from := rng.Intn(refs)
		cap := 1 + rng.Intn(4+int((1-intensity)*12))
		if cap > v {
			cap = v
		}
		s.Spikes = append(s.Spikes, Spike{From: from, To: from + width, Cap: cap})
	}
	return s
}

// Pressured drives a policy under a capacity schedule: before each
// reference the schedule's current capacity is imposed on the wrapped
// policy — CD sees it through its Avail hook (so ALLOCATE grants shrink)
// and through immediate frame reclamation when the resident set
// overshoots a shrink. Directive-blind policies only feel the Avail-less
// part, i.e. nothing: machine faults are a CD-specific stressor, exactly
// like the multiprogramming kernel's shared pool that Avail exists for.
type Pressured struct {
	policy.Policy
	sched *Schedule
	cd    *policy.CD
	clock int
}

// NewPressured wraps p with the capacity schedule. When p is (a wrapper
// around) CD, its Avail hook is pointed at the schedule.
func NewPressured(p policy.Policy, sched *Schedule) *Pressured {
	pr := &Pressured{Policy: p, sched: sched, cd: policy.AsCD(p)}
	if pr.cd != nil {
		pr.cd.Avail = func() int {
			free := pr.sched.Cap(pr.clock) - pr.cd.Resident()
			if free < 0 {
				return 0
			}
			return free
		}
	}
	return pr
}

// Unwrap exposes the wrapped policy (policy.AsCD sees through it).
func (p *Pressured) Unwrap() policy.Policy { return p.Policy }

// Charged keeps the wrapped policy's space-time charging rule.
func (p *Pressured) Charged() int { return policy.Charge(p.Policy) }

// Ref implements Policy: advance the pressure clock, reclaim frames if a
// spike shrank capacity below the resident set, then pass the reference
// through.
func (p *Pressured) Ref(pg mem.Page) bool {
	p.clock++
	if p.cd != nil {
		if over := p.cd.Resident() - p.sched.Cap(p.clock); over > 0 {
			p.cd.Reclaim(over)
		}
	}
	return p.Policy.Ref(pg)
}

// Reset implements Policy.
func (p *Pressured) Reset() {
	p.clock = 0
	p.Policy.Reset()
}

var _ policy.Policy = (*Pressured)(nil)
var _ policy.Charger = (*Pressured)(nil)

// pressureOscillate builds a square wave over capacity: alternating
// full-capacity and floor-capacity half-periods for the whole run,
// modeling a periodic co-tenant (a cron job, a compaction cycle) rather
// than mem-pressure's isolated spikes. The floor is 1-3 frames at full
// intensity, up to ~11 at low intensity; the period is drawn so the run
// sees 3-8 full cycles.
func pressureOscillate(v, refs int, rng *Rand, intensity float64) *Schedule {
	if v < 1 {
		v = 1
	}
	s := &Schedule{Total: v}
	if refs <= 0 || intensity <= 0 {
		return s
	}
	period := refs / (6 + rng.Intn(10))
	if period < 1 {
		period = 1
	}
	floor := 1 + rng.Intn(3+int((1-intensity)*8))
	if floor > v {
		floor = v
	}
	for from := period; from < refs; from += 2 * period {
		s.Spikes = append(s.Spikes, Spike{From: from, To: from + period, Cap: floor})
	}
	return s
}
