package chaos

import (
	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// events returns tr's event stream in order, as a private slice the
// injectors that edit the event order may rearrange freely.
func events(tr *trace.Trace) []trace.Event {
	out := make([]trace.Event, 0, tr.Meta().Events)
	_ = tr.WalkBlocks(trace.CursorOpts{}, func(b trace.Block) bool {
		for _, pg := range b.Pages {
			out = append(out, trace.Event{Kind: trace.EvRef, Arg: int32(pg)})
		}
		if b.HasDir {
			out = append(out, b.Dir)
		}
		return true
	})
	return out
}

// rebuild returns the trace tr+suffix made of the given events, which
// index tr's side tables (shared, read-only). Its reference counters are
// recomputed by appending; like every injector's output, it carries no
// site column.
func rebuild(tr *trace.Trace, suffix string, evs []trace.Event) *trace.Trace {
	out := trace.New(tr.Name + "+" + suffix)
	out.Allocs, out.LockSets, out.UnlockSets = tr.Allocs, tr.LockSets, tr.UnlockSets
	for _, e := range evs {
		out.Append(e)
	}
	out.Finish()
	return out
}

// tableFault registers a directive-class fault that edits only side
// tables: Retable is form, and Perturb names its output tr+suffix, shares
// tr's event columns (read-only), drops the site column, and indexes the
// tables form returns.
func tableFault(name, suffix, desc string, form func(*trace.SideTables, trace.Meta, *Rand, float64) *trace.SideTables) Fault {
	return Fault{Name: name, Class: ClassDirective, Desc: desc, Retable: form,
		Perturb: func(tr *trace.Trace, rng *Rand, intensity float64) *trace.Trace {
			out := tr.WithoutSites()
			out.Name = tr.Name + "+" + suffix
			out.SideTables = *form(&out.SideTables, tr.Meta(), rng, intensity)
			return out
		}}
}

// editable returns a copy of tb with private Allocs and LockSets slices,
// for the table-level injectors. The entries themselves are still shared
// (compiled traces are memoized and must never be mutated): an injector
// that edits one replaces it with its own copy.
func editable(tb *trace.SideTables) *trace.SideTables {
	out := *tb
	out.Allocs = append([]trace.AllocDirective(nil), tb.Allocs...)
	out.LockSets = append([]trace.LockSet(nil), tb.LockSets...)
	return &out
}

// dropDirectives removes each directive event with probability intensity
// — the "compiler forgot to emit it" fault. The reference string is
// untouched, so only CD sees a difference.
func dropDirectives(tr *trace.Trace, rng *Rand, intensity float64) *trace.Trace {
	evs := events(tr)
	kept := evs[:0]
	for _, e := range evs {
		if e.Kind != trace.EvRef && rng.Bool(intensity) {
			continue
		}
		kept = append(kept, e)
	}
	return rebuild(tr, "drop", kept)
}

// dupDirectives emits each directive event twice with probability
// intensity — re-executed directives must be idempotent for CD.
func dupDirectives(tr *trace.Trace, rng *Rand, intensity float64) *trace.Trace {
	evs := events(tr)
	duped := make([]trace.Event, 0, len(evs))
	for _, e := range evs {
		duped = append(duped, e)
		if e.Kind != trace.EvRef && rng.Bool(intensity) {
			duped = append(duped, e)
		}
	}
	return rebuild(tr, "dup", duped)
}

// reorderDirectives slides each directive event 1-64 positions later
// with probability intensity, modeling directives arriving after the
// loop they were meant to precede.
func reorderDirectives(tr *trace.Trace, rng *Rand, intensity float64) *trace.Trace {
	evs := events(tr)
	for i := 0; i < len(evs); i++ {
		e := evs[i]
		if e.Kind == trace.EvRef || !rng.Bool(intensity) {
			continue
		}
		to := i + 1 + rng.Intn(64)
		if to >= len(evs) {
			to = len(evs) - 1
		}
		copy(evs[i:to], evs[i+1:to+1])
		evs[to] = e
		// The slid event is re-visited at its new position; skipping past
		// it keeps one slide per original event.
		i = to
	}
	return rebuild(tr, "reorder", evs)
}

// corruptPriorities randomizes ALLOCATE arm priority indexes and LOCK
// priorities with probability intensity per side-table entry — breaking
// the strictly-decreasing-PI contract (and sometimes the PJ >= 1 one)
// that the CD validator checks.
func corruptPriorities(tb *trace.SideTables, _ trace.Meta, rng *Rand, intensity float64) *trace.SideTables {
	out := editable(tb)
	for i, d := range out.Allocs {
		if !rng.Bool(intensity) {
			continue
		}
		arms := append([]directive.Arm(nil), d.Arms...)
		arms[rng.Intn(len(arms))].PI = rng.Intn(10) // 0 is an outright violation
		out.Allocs[i] = trace.AllocDirective{Label: d.Label, Arms: arms}
	}
	for i, ls := range out.LockSets {
		if !rng.Bool(intensity) {
			continue
		}
		out.LockSets[i] = trace.LockSet{PJ: rng.Intn(10), Site: ls.Site, Pages: ls.Pages}
	}
	return out
}

// lockNoUnlock drops each UNLOCK with probability intensity, so locks
// accumulate until memory pressure forces their release (the §3.2
// pressure valve) — a liveness fault rather than a contract violation.
func lockNoUnlock(tr *trace.Trace, rng *Rand, intensity float64) *trace.Trace {
	evs := events(tr)
	kept := evs[:0]
	for _, e := range evs {
		if e.Kind == trace.EvUnlock && rng.Bool(intensity) {
			continue
		}
		kept = append(kept, e)
	}
	return rebuild(tr, "nounlock", kept)
}

// unknownSegment redirects LOCK page sets past the program's address
// space with probability intensity per lock set — the mistargeted-
// directive fault the validator's range check exists for.
func unknownSegment(tb *trace.SideTables, m trace.Meta, rng *Rand, intensity float64) *trace.SideTables {
	out := editable(tb)
	v := int(m.MaxPage) + 1
	for i, ls := range out.LockSets {
		if len(ls.Pages) == 0 || !rng.Bool(intensity) {
			continue
		}
		pages := append([]mem.Page(nil), ls.Pages...)
		pages[rng.Intn(len(pages))] = mem.Page(v + 1 + rng.Intn(1024))
		out.LockSets[i] = trace.LockSet{PJ: ls.PJ, Site: ls.Site, Pages: pages}
	}
	return out
}

// staleDirectives rescales ALLOCATE requests by a power-of-two factor in
// [1/4, 8] with probability intensity per directive — locality estimates
// left stale after the program was re-tuned. Scaling a whole else-chain
// uniformly preserves the monotonicity contract, so moderate staleness
// degrades performance silently; a large scale-up can push a request
// past the address space and trip the validator instead.
func staleDirectives(tb *trace.SideTables, _ trace.Meta, rng *Rand, intensity float64) *trace.SideTables {
	out := editable(tb)
	factors := []struct{ num, den int }{{1, 4}, {1, 2}, {2, 1}, {4, 1}, {8, 1}}
	for i, d := range out.Allocs {
		if !rng.Bool(intensity) {
			continue
		}
		f := factors[rng.Intn(len(factors))]
		arms := append([]directive.Arm(nil), d.Arms...)
		for j := range arms {
			x := arms[j].X * f.num / f.den
			if x < 1 {
				x = 1
			}
			arms[j].X = x
		}
		out.Allocs[i] = trace.AllocDirective{Label: d.Label, Arms: arms}
	}
	return out
}

// bitflipPages flips one of the low 12 page-number bits per reference
// with probability intensity/100, modeling soft memory errors in the
// address path. Flipped pages may land outside the program's real
// footprint; a robust simulator must treat them as cold pages, not
// crash.
func bitflipPages(tr *trace.Trace, rng *Rand, intensity float64) *trace.Trace {
	evs := events(tr)
	p := intensity / 100
	for i, e := range evs {
		if e.Kind == trace.EvRef && rng.Bool(p) {
			evs[i].Arg = e.Arg ^ (1 << rng.Intn(12))
		}
	}
	return rebuild(tr, "bitflip", evs)
}

// truncateTrace cuts the trace to its first (1 - intensity) fraction of
// events — the program crashed or the trace file was cut short. Every
// accounting identity must still hold over the prefix.
func truncateTrace(tr *trace.Trace, _ *Rand, intensity float64) *trace.Trace {
	evs := events(tr)
	keep := int(float64(len(evs)) * (1 - intensity))
	if keep < 0 {
		keep = 0
	}
	return rebuild(tr, "trunc", evs[:keep])
}

// wildPages redirects references far outside the address space with
// probability intensity/100 per reference — wild pointers rather than
// single bit flips.
func wildPages(tr *trace.Trace, rng *Rand, intensity float64) *trace.Trace {
	evs := events(tr)
	v := int(tr.MaxPage()) + 1
	p := intensity / 100
	for i, e := range evs {
		if e.Kind == trace.EvRef && rng.Bool(p) {
			evs[i].Arg = int32(v + 1 + rng.Intn(1<<16))
		}
	}
	return rebuild(tr, "wild", evs)
}

// tenantKill models a program killed mid-run and restarted from the
// beginning: the trace becomes 1-3 partial attempts (random prefixes,
// more and longer with higher intensity) followed by the complete run.
// Every directive in a killed attempt replays on restart, so allocation
// and locking must be idempotent across re-execution — the same contract
// the kernel's chaos kill exercises at the scheduler level.
func tenantKill(tr *trace.Trace, rng *Rand, intensity float64) *trace.Trace {
	evs := events(tr)
	if len(evs) == 0 || intensity <= 0 {
		return rebuild(tr, "kill", evs)
	}
	attempts := 1 + int(intensity*2)
	runs := make([]trace.Event, 0, (attempts+1)*len(evs))
	for i := 0; i < attempts; i++ {
		cut := rng.Intn(len(evs))
		runs = append(runs, evs[:cut]...)
	}
	runs = append(runs, evs...)
	return rebuild(tr, "kill", runs)
}
