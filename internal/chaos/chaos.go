// Package chaos is the deterministic fault-injection harness for the CD
// policy's robustness study. The paper's §4 policy assumes the compiler-
// emitted directive stream is correct; chaos perturbs that assumption
// three ways — corrupting the directive stream, corrupting the page-
// reference trace itself, and shrinking the machine under the program
// mid-run — so the degraded-mode contract (policy.CheckConfig) and the
// checked simulator (vmsim.RunChecked) can be exercised over every
// workload. All injectors are pure functions of (trace, seeded PRNG,
// intensity): the same seed reproduces the same perturbation bit for bit
// at any parallelism level.
package chaos

import (
	"fmt"

	"cdmm/internal/trace"
)

// Class discriminates what a fault perturbs.
type Class string

const (
	// ClassDirective faults corrupt the compiler's ALLOCATE/LOCK/UNLOCK
	// stream while leaving the reference string intact.
	ClassDirective Class = "directive"
	// ClassTrace faults corrupt the page-reference string itself.
	ClassTrace Class = "trace"
	// ClassMachine faults leave the trace alone and instead shrink the
	// memory available to the program mid-run.
	ClassMachine Class = "machine"
)

// Fault is one registered injector. Directive- and trace-class faults
// implement Perturb; machine-class faults implement Pressure. Intensity
// is a dial in [0, 1]: 0 injects nothing, 1 is the heaviest perturbation
// the fault models.
type Fault struct {
	Name  string
	Class Class
	Desc  string

	// Perturb returns a perturbed copy of the trace (the input is never
	// mutated — compiled traces are shared and memoized). Nil for
	// machine-class faults.
	Perturb func(tr *trace.Trace, rng *Rand, intensity float64) *trace.Trace

	// Retable is the table-level form of a fault that edits only
	// directive side-table entries (corrupt-priorities, unknown-segment,
	// stale-directives): given a stream's side tables and Meta, it
	// returns new tables, leaving tb untouched. Such a fault's Perturb is
	// Retable applied to the trace's own tables, drawing from rng in the
	// same order, so a stream that is never stored — a kernel tenant
	// generated on demand — is perturbed exactly as its trace would be.
	// Nil for every other fault.
	Retable func(tb *trace.SideTables, m trace.Meta, rng *Rand, intensity float64) *trace.SideTables

	// Pressure builds the capacity schedule for a machine-class fault,
	// given the program's virtual size v (pages) and reference count.
	// Nil for directive- and trace-class faults.
	Pressure func(v, refs int, rng *Rand, intensity float64) *Schedule
}

// faults is the registry, in the fixed order the fault matrix iterates.
var faults = []Fault{
	{Name: "drop-directives", Class: ClassDirective,
		Desc:    "each directive event is dropped with probability = intensity",
		Perturb: dropDirectives},
	{Name: "dup-directives", Class: ClassDirective,
		Desc:    "each directive event is duplicated with probability = intensity",
		Perturb: dupDirectives},
	{Name: "reorder-directives", Class: ClassDirective,
		Desc:    "each directive event slides up to 64 events later with probability = intensity",
		Perturb: reorderDirectives},
	tableFault("corrupt-priorities", "badpri",
		"ALLOCATE arm PIs and LOCK PJs are randomized with probability = intensity",
		corruptPriorities),
	{Name: "lock-no-unlock", Class: ClassDirective,
		Desc:    "each UNLOCK is dropped with probability = intensity, leaving locks to pile up",
		Perturb: lockNoUnlock},
	tableFault("unknown-segment", "unkseg",
		"LOCK page sets are redirected past the program's address space with probability = intensity",
		unknownSegment),
	tableFault("stale-directives", "stale",
		"ALLOCATE requests are rescaled by 1/4x-8x with probability = intensity (post-detune staleness)",
		staleDirectives),
	{Name: "bitflip-pages", Class: ClassTrace,
		Desc:    "one low page-number bit flips per reference with probability = intensity/100",
		Perturb: bitflipPages},
	{Name: "truncate", Class: ClassTrace,
		Desc:    "the trace is cut to its first (1 - intensity) fraction of events",
		Perturb: truncateTrace},
	{Name: "wild-pages", Class: ClassTrace,
		Desc:    "references are redirected far out of the address space with probability = intensity/100",
		Perturb: wildPages},
	{Name: "mem-pressure", Class: ClassMachine,
		Desc:     "mid-run capacity spikes shrink available memory by up to intensity",
		Pressure: memPressure},
	// New faults append here: the matrix derives per-cell seeds from the
	// fault name, but rows render in registry order, so appending keeps
	// every existing cell byte-identical.
	{Name: "tenant-kill", Class: ClassTrace,
		Desc:    "the program is killed mid-run 1-3 times and restarted from the beginning, replaying all directives",
		Perturb: tenantKill},
	{Name: "pressure-oscillate", Class: ClassMachine,
		Desc:     "capacity square-waves between full and a few frames for the whole run (periodic co-tenant)",
		Pressure: pressureOscillate},
}

// Faults returns the registry in its fixed matrix order. The returned
// slice is shared; do not mutate it.
func Faults() []Fault { return faults }

// Get returns the named fault.
func Get(name string) (Fault, error) {
	for _, f := range faults {
		if f.Name == name {
			return f, nil
		}
	}
	return Fault{}, fmt.Errorf("chaos: unknown fault %q", name)
}

// Names returns the fault names in matrix order.
func Names() []string {
	out := make([]string, len(faults))
	for i, f := range faults {
		out[i] = f.Name
	}
	return out
}
