// Checked-run mode: RunChecked replays a trace like RunObserved while
// asserting simulator invariants after every event and auditing the
// emitted event stream against the accumulated Result via obs.Replay.
// It exists for the fault-injection harness — a perturbed trace must
// never drive the simulator into silently inconsistent state — but works
// for any policy/trace pair.
package vmsim

import (
	"fmt"

	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// InvariantError reports a violated simulator invariant: which invariant,
// under which policy, after how many references, and what was observed.
type InvariantError struct {
	Invariant string // short invariant id, e.g. "resident-bounds"
	Policy    string
	I         int // references executed when the violation was detected
	Detail    string
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("invariant %s violated (policy %s, after %d refs): %s",
		e.Invariant, e.Policy, e.I, e.Detail)
}

// RunChecked replays the trace under the policy with invariant checking:
// the resident set must stay within [0, V] (resident pages can only come
// from the reference string), a locked page must be resident and the lock
// bookkeeping internally consistent (CD only, while not degraded), and
// the emitted event stream must replay — via obs.Replay — to exactly the
// fault count and memory sum of the returned Result. Events still reach o
// as in RunObserved. The Result is valid up to the point of failure even
// when an error is returned.
func RunChecked(tr *trace.Trace, pol policy.Policy, o *obs.Observer) (Result, error) {
	col := &obs.Collector{}
	tracers := obs.MultiTracer{col}
	checkedObs := &obs.Observer{Tracer: tracers}
	if o != nil {
		if o.Tracer != nil {
			tracers = append(tracers, o.Tracer)
			checkedObs.Tracer = tracers
		}
		checkedObs.Metrics = o.Metrics
	}

	cp := &checkedPolicy{
		inner:    pol,
		cd:       policy.AsCD(pol),
		maxPages: tr.Distinct,
	}
	res := RunObserved(tr, cp, checkedObs)
	if cp.err != nil {
		return res, cp.err
	}

	if err := obs.AuditReplay(col.Events, res.Refs, res.Faults, res.MemSum); err != nil {
		return res, &InvariantError{
			Invariant: "replay",
			Policy:    res.Policy,
			I:         res.Refs,
			Detail:    err.Error(),
		}
	}
	return res, nil
}

// checkedPolicy decorates a policy with per-event invariant assertions.
// Only the first violation is recorded; the run continues so the caller
// still gets a complete (if suspect) Result alongside the error.
type checkedPolicy struct {
	inner    policy.Policy
	cd       *policy.CD // non-nil when inner is (a wrapper around) CD
	maxPages int        // V: distinct pages in the trace
	refs     int
	err      *InvariantError
}

// Unwrap exposes the decorated policy so policy.AsCD sees through the
// checker (the observed loop installs CD hooks via AsCD).
func (c *checkedPolicy) Unwrap() policy.Policy { return c.inner }

// Name implements Policy.
func (c *checkedPolicy) Name() string { return c.inner.Name() }

// Charged keeps the inner policy's space-time charging rule.
func (c *checkedPolicy) Charged() int { return policy.Charge(c.inner) }

// fail records the first invariant violation.
func (c *checkedPolicy) fail(invariant, format string, args ...any) {
	if c.err != nil {
		return
	}
	c.err = &InvariantError{
		Invariant: invariant,
		Policy:    c.inner.Name(),
		I:         c.refs,
		Detail:    fmt.Sprintf(format, args...),
	}
}

// checkResident asserts the bounds every policy must maintain: a
// non-negative resident set that never exceeds the trace's distinct page
// count (pages become resident only by being referenced), and a
// well-defined space-time charge.
func (c *checkedPolicy) checkResident() {
	r := c.inner.Resident()
	if r < 0 {
		c.fail("resident-bounds", "resident set size %d is negative", r)
		return
	}
	if c.maxPages > 0 && r > c.maxPages {
		c.fail("resident-bounds", "resident set size %d exceeds the trace's %d distinct pages", r, c.maxPages)
		return
	}
	if ch := policy.Charge(c.inner); ch < 0 {
		c.fail("charge", "space-time charge %d is negative", ch)
	}
}

// checkLocks asserts CD's lock invariants while the directives are still
// trusted: locked pages are a subset of the resident set and the lock
// bookkeeping is internally consistent.
func (c *checkedPolicy) checkLocks() {
	if c.cd == nil || c.cd.Degraded() {
		return
	}
	if l, r := c.cd.LockedPages(), c.cd.Resident(); l < 0 || l > r {
		c.fail("locked-resident", "%d locked pages with %d resident", l, r)
		return
	}
	if err := c.cd.AuditLocks(); err != nil {
		c.fail("lock-audit", "%v", err)
	}
}

// Ref implements Policy.
func (c *checkedPolicy) Ref(pg mem.Page) bool {
	fault := c.inner.Ref(pg)
	c.refs++
	c.checkResident()
	if c.cd != nil && !c.cd.Degraded() {
		if l, r := c.cd.LockedPages(), c.cd.Resident(); l > r {
			c.fail("locked-resident", "%d locked pages with %d resident", l, r)
		}
	}
	return fault
}

// Resident implements Policy.
func (c *checkedPolicy) Resident() int { return c.inner.Resident() }

// Alloc implements Policy.
func (c *checkedPolicy) Alloc(d trace.AllocDirective) {
	c.inner.Alloc(d)
	c.checkResident()
	c.checkLocks()
}

// Lock implements Policy.
func (c *checkedPolicy) Lock(ls trace.LockSet) {
	c.inner.Lock(ls)
	c.checkResident()
	c.checkLocks()
}

// Unlock implements Policy.
func (c *checkedPolicy) Unlock(pages []mem.Page) {
	c.inner.Unlock(pages)
	c.checkResident()
	c.checkLocks()
}

// Reset implements Policy.
func (c *checkedPolicy) Reset() {
	c.inner.Reset()
	c.refs = 0
}

var _ policy.Policy = (*checkedPolicy)(nil)
var _ policy.Charger = (*checkedPolicy)(nil)
