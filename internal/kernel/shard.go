package kernel

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/vmsim"
)

// shard is one independent slice of the kernel: a private frame budget,
// a FIFO admission queue, and a sequential discrete-event loop over its
// tenants. Sharding is what makes the kernel deterministic at any -j —
// tenants are assigned to shards by id, each shard simulates alone, and
// the merge is by shard index — and what makes it scale: shards share
// nothing, so aggregate throughput is the worker pool's.
type shard struct {
	cfg    *Config
	idx    int
	frames int
	osc    *oscillator

	tenants   []*tenant // all of this shard's tenants, id order
	queue     []*tenant // admission FIFO
	active    []*tenant
	suspended []*tenant // suspension FIFO (resume order)

	clock    int64
	rr       int // round-robin cursor into active
	estSum   int // Σ Est of admitted (active + suspended) tenants
	admitSeq int

	// used is the running resident total: Σ tenant.res over active. It
	// is recounted wherever a tenant's residency can move (after each
	// quantum, reclaim and policy reset), and running is the tenant in
	// its quantum, whose live delta usage adds.
	used    int
	running *tenant

	gateClosed bool
	gateUntil  int64

	winRefs, winFaults int64
	thrashStreak       int

	// trip is the chaos trip-wire: the quantum count at which an
	// injected invariant violation fires (0 = never).
	trip int64

	remaining int // tenants not yet in a terminal state
	totalRefs int64
	doneRefs  int64

	availFn func() int
	scratch []*tenant
	// spare holds the reset CD policies of finished synthesized tenants
	// (a job's policy belongs to its caller). The next CD admission takes
	// one instead of building its own, so the shard builds no more
	// policies — page indexes, slot arrays, lock lists, WS fallback
	// rings — than it ever has tenants holding one at once.
	spare []*policy.CD
	// quantum accumulates runQuantum's indexes; a shard field, since a
	// local passed to a policy's StepBlock would escape on every quantum.
	quantum policy.BlockResult

	o *obs.Observer // enabled observer (events), nil otherwise
	g *liveGauges   // shared live tenant-state gauges, nil when unobserved

	tl *telem      // telemetry collection state, nil when the plane is off
	fr *flightRing // flight recorder, nil when the plane is off

	res shardResult
}

// shardResult is one shard's aggregate accounting; Run merges these in
// shard order.
type shardResult struct {
	Shard  int
	Frames int
	Clock  int64
	Idle   int64

	Refs, Faults, MemSum, VTime int64

	Admitted, Done, Shed                  int64
	Suspends, Resumes                     int64
	ReclaimWaves, ReclaimedFrames         int64
	Kills, Restarts, Degraded             int64
	SwapSignals, LockReleases             int64
	ThrashEvents, Overruns                int64
	MaxQueueWait, MaxSuspendWait, Starved int64

	Violations []Violation
	Tenants    []TenantResult

	Telem            *telem
	Incidents        []Incident
	IncidentsDropped int64
}

// action is runQuantum's outcome signal to the scheduler.
type action int

const (
	actNone   action = iota
	actSignal        // the tenant raised its own CD swap signal
	actDone          // the tenant reached end of stream
)

// newShard builds shard idx over the given tenant specs.
func newShard(cfg *Config, idx, frames int, specs []SynthSpec, o *obs.Observer, g *liveGauges) *shard {
	sh := &shard{cfg: cfg, idx: idx, frames: frames, o: o, g: g}
	sh.res.Shard = idx
	sh.res.Frames = frames
	if cfg.Telemetry {
		sh.tl = &telem{}
		sh.fr = newFlightRing()
	}
	sh.trip = planShardTrip(cfg, idx)
	sh.osc = newOscillator(cfg, idx, frames)
	sh.tenants = make([]*tenant, 0, len(specs))
	sh.queue = make([]*tenant, 0, len(specs))
	for _, spec := range specs {
		t := &tenant{spec: spec, state: StateQueued}
		if len(cfg.Jobs) > 0 {
			t.job = &cfg.Jobs[spec.ID]
		}
		planTenantChaos(cfg, t)
		sh.tenants = append(sh.tenants, t)
		sh.queue = append(sh.queue, t)
		sh.totalRefs += int64(spec.Refs)
	}
	sh.remaining = len(sh.tenants)
	sh.availFn = func() int {
		free := sh.framesNow() - sh.usage()
		if free < 0 {
			return 0
		}
		return free
	}
	g.addQueued(int64(len(sh.tenants)))
	return sh
}

// framesNow is the shard's capacity at the current clock (the oscillator
// chaos fault shrinks it periodically).
func (sh *shard) framesNow() int { return sh.osc.capAt(sh.clock, sh.frames) }

// usage is the shard's resident frame total in O(1): the running total
// plus the live delta of the tenant in its quantum, whose CD policy asks
// for its free frames mid-quantum (availFn). Only active tenants hold
// frames (suspension resets the policy).
func (sh *shard) usage() int {
	if t := sh.running; t != nil {
		return sh.used - t.res + t.pol.Resident()
	}
	return sh.used
}

// recount brings t's share of the running total up to its policy's
// residency.
func (sh *shard) recount(t *tenant) {
	r := t.pol.Resident()
	sh.used += r - t.res
	t.res = r
}

// sumResident recounts the resident frame total from the active
// tenants' policies: the audit of the running total.
func (sh *shard) sumResident() int {
	n := 0
	for _, t := range sh.active {
		n += t.pol.Resident()
	}
	return n
}

// auditUsage compares the running total with a full recount. A drift is
// a violation, after which the total and every tenant's share are
// recounted so the scheduler goes on from true numbers.
func (sh *shard) auditUsage(when string) {
	sum := sh.sumResident()
	if sum == sh.used {
		return
	}
	sh.violate("usage-drift", "", fmt.Sprintf("running resident total %d but %d resident %s", sh.used, sum, when))
	for _, t := range sh.active {
		t.res = t.pol.Resident()
	}
	sh.used = sum
}

// join appends t to the active set and counts its residency (zero for a
// fresh or reset policy).
func (sh *shard) join(t *tenant) {
	sh.active = append(sh.active, t)
	sh.recount(t)
}

// run executes the shard to completion and returns its result.
func (sh *shard) run(prog obs.ProgressFunc) *shardResult {
	budget := sh.iterBudget()
	quanta := 0
	for sh.remaining > 0 {
		if budget--; budget < 0 {
			sh.violate("livelock", "", fmt.Sprintf("iteration budget exhausted at clock %d with %d tenants left", sh.clock, sh.remaining))
			break
		}
		sh.admitStep()
		t := sh.pickReady()
		if t == nil {
			sh.advanceClock()
			continue
		}
		sh.step(t)
		sh.pressureWave()
		sh.thrashCheck()
		quanta++
		if sh.trip > 0 && int64(quanta) == sh.trip {
			sh.violate("chaos-trip", "", fmt.Sprintf("injected invariant trip at quantum %d", quanta))
		}
		if quanta%64 == 0 {
			if prog != nil {
				done := sh.doneRefs
				if done > sh.totalRefs {
					done = sh.totalRefs
				}
				prog(int(done), int(sh.totalRefs), sh.clock)
			}
			sh.g.flush()
			if sh.cfg.Publish != nil {
				sh.cfg.Publish.publishShard(sh.idx, sh.tl.clone())
			}
		}
	}
	sh.finalChecks()
	if prog != nil {
		prog(int(sh.totalRefs), int(sh.totalRefs), sh.clock)
	}
	sh.g.flush()
	sh.res.Clock = sh.clock
	sh.res.Tenants = make([]TenantResult, 0, len(sh.tenants))
	for _, t := range sh.tenants {
		sh.res.Tenants = append(sh.res.Tenants, t.result())
	}
	sh.res.Telem = sh.tl
	// Return a copy: a pointer into sh would keep the whole shard, every
	// tenant struct included, alive until Run merges all shards.
	res := sh.res
	return &res
}

// iterBudget bounds the scheduler loop: a structural backstop far above
// any legitimate run (every quantum, directive, suspension and idle hop
// costs one iteration) so a scheduling bug surfaces as a "livelock"
// violation instead of a hang.
func (sh *shard) iterBudget() int64 {
	q := int64(sh.cfg.Quantum)
	if q < 1 {
		q = 1
	}
	return 1_000_000 + 64*(sh.totalRefs/q+1) + 4096*int64(len(sh.tenants))
}

// admitStep runs the scheduler's admission pass: resume suspended
// tenants first (FIFO, aging-bounded), then admit queued tenants through
// the hysteresis gate.
func (sh *shard) admitStep() {
	frames := sh.framesNow()
	// Resume pass. The head resumes when its estimate fits, when it has
	// aged past agingTicks (the bounded-wait guarantee: pressure cannot
	// postpone a resume forever), or when the shard would otherwise idle.
	for len(sh.suspended) > 0 {
		s := sh.suspended[0]
		aged := sh.clock-s.suspendedAt >= agingTicks
		if !aged && len(sh.active) > 0 && sh.usage()+s.spec.Est > frames {
			break
		}
		sh.resume(s)
	}
	if len(sh.suspended) > 0 {
		return // suspended tenants outrank fresh admissions
	}
	// Gate hysteresis: closed at admitHi, reopens below admitLo (and
	// after any thrash hold-down expires).
	if sh.gateClosed && sh.clock >= sh.gateUntil &&
		sh.estSum <= int(admitLo*float64(frames)) {
		sh.gateClosed = false
	}
	for len(sh.queue) > 0 {
		t := sh.queue[0]
		// MPL >= 1: the kernel never idles with work queued, whatever the
		// gate says — otherwise a closed gate over an empty shard would
		// deadlock.
		mustAdmit := len(sh.active) == 0
		if sh.gateClosed && !mustAdmit {
			return
		}
		if t.spec.Est > sh.frames {
			sh.popQueue()
			sh.shed(t, "oversize")
			continue
		}
		if sh.estSum+t.spec.Est > int(admitHi*float64(frames)) && !mustAdmit {
			sh.gateClosed = true
			return
		}
		sh.popQueue()
		sh.admit(t)
	}
}

// popQueue removes the queue head.
func (sh *shard) popQueue() {
	sh.queue[0] = nil
	sh.queue = sh.queue[1:]
}

// admit moves a queued tenant to Running: open its stream (its job's
// source or its spec generated on demand, under chaos-perturbed tables
// if its plan says so), pick its policy, hook a CD policy to the shard's
// free frames, and charge its estimate against the gate. A re-admission
// after a chaos kill reuses the existing source, its rewound cursor and
// the policy.
func (sh *shard) admit(t *tenant) {
	if t.src == nil {
		t.src = tenantSource(sh.cfg, t)
		t.tables = t.src.Tables()
	}
	if t.cur == nil {
		t.openStream()
	}
	if t.pol == nil {
		t.pol = sh.tenantPolicy(t)
		t.cd = policy.AsCD(t.pol)
		if t.cd != nil {
			t.cd.Avail = sh.availFn
		}
	}
	t.queueWait += sh.clock - t.queuedAt
	if t.queueWait > sh.res.MaxQueueWait {
		sh.res.MaxQueueWait = t.queueWait
	}
	if sh.tl != nil {
		sh.tl.admitWait.Observe(sh.clock - t.queuedAt)
		sh.flight("admit", t.spec.Name, "")
	}
	t.state = StateRunning
	t.admitSeq = sh.admitSeq
	sh.admitSeq++
	t.readyAt = sh.clock
	t.grace = false
	t.seenSignals = 0
	sh.estSum += t.spec.Est
	sh.join(t)
	sh.res.Admitted++
	sh.g.admit()
}

// tenantPolicy returns t's policy: a spare CD policy when the shard
// holds one (only synthesized CD tenants leave one), re-readied for t by
// the vmsim.Prepare rule with t's address space as its contract bound,
// else a new one.
func (sh *shard) tenantPolicy(t *tenant) policy.Policy {
	var pol policy.Policy
	ev := policyReused
	if n := len(sh.spare); n > 0 {
		cd := sh.spare[n-1]
		sh.spare[n-1] = nil
		sh.spare = sh.spare[:n-1]
		cd.Check.MaxPage = t.spec.V
		vmsim.Prepare(cd, t.src.Meta())
		pol = cd
	} else {
		pol = newTenantPolicy(sh.cfg, t)
		ev = policyBuilt
	}
	if policyHook != nil {
		policyHook(sh, t, ev)
	}
	return pol
}

// policyHook, when non-nil, observes each tenant policy a shard hands
// out or takes back. It is nil outside tests (see export_test.go).
var policyHook func(sh *shard, t *tenant, ev policyEvent)

// policyEvent is what policyHook observes.
type policyEvent int

const (
	policyBuilt    policyEvent = iota // admission took newTenantPolicy's policy
	policyReused                      // admission took a spare CD policy
	policyReturned                    // a finished tenant gave its policy back
)

// pickReady returns the next ready active tenant in round-robin order.
func (sh *shard) pickReady() *tenant {
	n := len(sh.active)
	for i := 0; i < n; i++ {
		t := sh.active[(sh.rr+i)%n]
		if t.readyAt <= sh.clock {
			sh.rr = (sh.rr + i + 1) % n
			return t
		}
	}
	return nil
}

// step runs one quantum of t and applies the resulting transition.
func (sh *shard) step(t *tenant) {
	act := sh.runQuantum(t)
	// Chaos kill: evaluated after the quantum so the kill point is a pure
	// function of executed references, independent of scheduling.
	if act != actDone && t.killAt > 0 && t.refs >= t.killAt && t.restarts < maxRestarts {
		sh.kill(t)
		return
	}
	switch act {
	case actSignal:
		sh.suspend(t, "signal")
	case actDone:
		sh.finish(t)
	default:
		if sh.cfg.Checked {
			sh.checkRunning(t)
		}
	}
}

// runQuantum executes up to Quantum references of t through policy.Step,
// applying directive events (free of quantum) at block boundaries. The
// clock advances by the references executed; the quantum's fault
// service is aggregated into the tenant's readyAt, so it overlaps with
// other tenants' execution — batched per quantum rather than yielding
// on every fault, which is what lets a shard sustain millions of
// references per second. While t runs, usage reads its live residency;
// the quantum ends by recounting t's share of the running total.
func (sh *shard) runQuantum(t *tenant) action {
	sh.running = t
	budget := sh.cfg.Quantum
	out := &sh.quantum
	*out = policy.BlockResult{}
	executed := 0
	act := actNone
	for budget > 0 {
		if t.bi >= len(t.blk.Pages) && !t.dirPend && !t.eof {
			if !t.cur.Next(&t.blk) {
				t.eof = true
			} else {
				t.bi = 0
				t.dirPend = t.blk.HasDir
			}
		}
		if t.eof {
			act = actDone
			break
		}
		if t.bi < len(t.blk.Pages) {
			n := len(t.blk.Pages) - t.bi
			if n > budget {
				n = budget
			}
			policy.Step(t.pol, t.blk.Pages[t.bi:t.bi+n], out)
			t.bi += n
			budget -= n
			executed += n
			continue
		}
		// The block's closing directive. Only an ALLOCATE can raise a
		// swap signal.
		t.dirPend = false
		vmsim.ApplyDirective(t.pol, t.tables, t.blk.Dir)
		if t.cd != nil && t.cd.SwapSignals > t.seenSignals {
			t.seenSignals = t.cd.SwapSignals
			// The tenant's own PI = 1 request was ungrantable: suspend
			// it (the §4 swapping mechanism, kernel edition).
			act = actSignal
			break
		}
	}
	sh.running = nil
	sh.recount(t)
	t.refs += int64(executed)
	t.faults += int64(out.Faults)
	t.memSum += out.MemSum
	t.vtime += out.VTime
	sh.doneRefs += int64(executed)
	sh.winRefs += int64(executed)
	sh.winFaults += int64(out.Faults)
	sh.res.Refs += int64(executed)
	sh.res.Faults += int64(out.Faults)
	sh.res.MemSum += out.MemSum
	sh.res.VTime += out.VTime
	sh.clock += int64(executed)
	t.readyAt = sh.clock + int64(out.Faults)*policy.FaultService
	t.grace = false
	if sh.tl != nil {
		if out.Faults > 0 {
			sh.tl.faultLat.Observe(int64(out.Faults) * policy.FaultService)
		}
		sh.tl.occupancy.Observe(int64(t.res))
	}
	return act
}

// parkPolicy folds the tenant's policy counters, audits its lock
// bookkeeping (checked mode), and resets it, releasing every frame. The
// shared tail of suspend, kill and finish.
func (sh *shard) parkPolicy(t *tenant) {
	if t.foldPolicy() {
		sh.noteDegraded(t)
	}
	if sh.cfg.Checked && t.cd != nil && !t.cd.Degraded() {
		if err := t.cd.AuditLocks(); err != nil {
			sh.violate("lock-audit", t.spec.Name, err.Error())
		}
	}
	t.pol.Reset()
	sh.recount(t)
	if sh.cfg.Checked && t.pol.Resident() != 0 {
		sh.violate("frame-leak", t.spec.Name,
			fmt.Sprintf("%d frames resident after policy reset", t.pol.Resident()))
	}
}

// noteDegraded records a tenant's first directive-contract degradation.
func (sh *shard) noteDegraded(t *tenant) {
	sh.res.Degraded++
	sh.g.degrade()
	if sh.fr != nil {
		sh.flight("degrade", t.spec.Name, t.degradedReason)
		sh.incident("degrade", t.spec.Name, t.degradedReason)
	}
	if sh.o != nil {
		sh.o.Emit(obs.Event{Kind: obs.KindDegrade, T: sh.clock, Job: t.spec.Name,
			Why: t.degradedReason})
	}
}

// suspend parks an active tenant: frames released now, stream position
// kept, swap-in delay charged, FIFO position taken for resume.
func (sh *shard) suspend(t *tenant, why string) {
	res := t.pol.Resident()
	sh.parkPolicy(t)
	sh.removeActive(t)
	t.state = StateSuspended
	t.suspendedAt = sh.clock
	if rt := sh.clock + swapInDelay; rt > t.readyAt {
		t.readyAt = rt
	}
	t.swaps++
	sh.res.Suspends++
	sh.suspended = append(sh.suspended, t)
	sh.g.suspendFromRunning()
	sh.flight("suspend", t.spec.Name, why)
	if sh.o != nil {
		sh.o.Emit(obs.Event{Kind: obs.KindSwap, T: sh.clock, Job: t.spec.Name, Res: res, Why: why})
	}
}

// resume reactivates the suspension-FIFO head and scores its wait
// against the starvation bound.
func (sh *shard) resume(t *tenant) {
	sh.suspended[0] = nil
	sh.suspended = sh.suspended[1:]
	wait := sh.clock - t.suspendedAt
	if wait > t.maxSuspendWait {
		t.maxSuspendWait = wait
	}
	if wait > sh.res.MaxSuspendWait {
		sh.res.MaxSuspendWait = wait
	}
	if wait > sh.cfg.starveBound() {
		sh.res.Starved++
	}
	t.state = StateRunning
	t.grace = true // immune to pressure victimization until it runs once
	sh.join(t)
	sh.res.Resumes++
	sh.g.resumeToRunning()
	if sh.tl != nil {
		sh.tl.suspDur.Observe(wait)
		sh.flight("resume", t.spec.Name, "")
	}
}

// kill is the chaos tenant-kill: frames reclaimed, stream rewound to the
// start, tenant re-queued at the tail. Counters already folded stay —
// the work it did was done.
func (sh *shard) kill(t *tenant) {
	sh.parkPolicy(t)
	t.closeStream(false)
	t.openStream()
	sh.removeActive(t)
	t.state = StateQueued
	t.queuedAt = sh.clock
	t.restarts++
	sh.res.Kills++
	sh.res.Restarts++
	sh.estSum -= t.spec.Est
	sh.queue = append(sh.queue, t)
	sh.g.killToQueued()
	if sh.fr != nil {
		sh.flight("kill", t.spec.Name, fmt.Sprintf("restart %d", t.restarts))
		sh.incident("kill", t.spec.Name, fmt.Sprintf("chaos kill at %d refs", t.refs))
	}
	if sh.o != nil {
		sh.o.Emit(obs.Event{Kind: obs.KindSwap, T: sh.clock, Job: t.spec.Name, Why: "kill"})
	}
}

// finish retires a tenant that reached end of stream, draining any
// outstanding fault service into its finish time, freeing its stream
// and giving up its policy: a synthesized tenant's CD policy joins the
// shard's spares, a job's goes back to its caller.
func (sh *shard) finish(t *tenant) {
	sh.parkPolicy(t)
	sh.removeActive(t)
	t.state = StateDone
	t.finished = sh.clock
	if t.readyAt > t.finished {
		t.finished = t.readyAt
	}
	sh.estSum -= t.spec.Est
	sh.remaining--
	sh.res.Done++
	sh.res.SwapSignals += t.signals
	sh.res.LockReleases += t.lockReleases
	t.closeStream(true)
	if policyHook != nil {
		policyHook(sh, t, policyReturned)
	}
	switch {
	case t.cd == nil:
	case t.job != nil:
		t.cd.Avail = nil // a job's policy outlives the shard
	default:
		sh.spare = append(sh.spare, t.cd) // reset by parkPolicy
	}
	t.pol = nil
	t.cd = nil
	sh.g.finishFromRunning()
	sh.flight("finish", t.spec.Name, "")
	if sh.o != nil {
		sh.o.Emit(obs.Event{Kind: obs.KindJobDone, T: t.finished, Job: t.spec.Name,
			Refs: int(t.refs), Faults: int(t.faults)})
	}
}

// shed drops a never-admitted tenant from the queue (terminal state).
// Admitted tenants are never shed — they terminate — so the kernel's
// completion guarantee covers everything the gate let in.
func (sh *shard) shed(t *tenant, why string) {
	t.state = StateShed
	t.shedReason = why
	t.finished = sh.clock
	t.closeStream(true)
	sh.remaining--
	sh.res.Shed++
	sh.g.shedFromQueued()
	sh.flight("shed", t.spec.Name, why)
}

// removeActive deletes t from the active slice, keeping round-robin
// order for the remaining tenants, and its share of the running total.
func (sh *shard) removeActive(t *tenant) {
	sh.used -= t.res
	t.res = 0
	for i, a := range sh.active {
		if a == t {
			sh.active = append(sh.active[:i], sh.active[i+1:]...)
			if sh.rr > i {
				sh.rr--
			}
			return
		}
	}
}

// pressureWave reclaims frames when residency exceeds capacity: pass 1
// asks CD tenants to give back frames above their allocation target
// (CD.Reclaim evicts LRU pages first, then force-releases soft locks in
// increasing lock priority — the §3.2 pressure valve); pass 2 suspends
// whole tenants, largest resident first, ties to the smaller id. Waves
// run at quantum boundaries, so residency may overshoot for at most one
// quantum.
func (sh *shard) pressureWave() {
	frames := sh.framesNow()
	over := sh.usage() - frames
	if over <= 0 {
		return
	}
	if sh.cfg.Checked {
		sh.auditUsage("at a pressure wave")
		if over = sh.usage() - frames; over <= 0 {
			return
		}
	}
	sh.res.ReclaimWaves++
	waveStart := over
	waveGot := 0
	defer func() {
		if sh.tl != nil {
			sh.tl.reclaimYield.Observe(int64(waveGot))
			sh.flight("wave", "", fmt.Sprintf("over=%d reclaimed=%d", waveStart, waveGot))
		}
	}()
	sh.scratch = append(sh.scratch[:0], sh.active...)
	slices.SortFunc(sh.scratch, func(a, b *tenant) int {
		if c := cmp.Compare(b.pol.Resident(), a.pol.Resident()); c != 0 {
			return c
		}
		return cmp.Compare(a.spec.ID, b.spec.ID)
	})
	for _, v := range sh.scratch {
		if over <= 0 {
			return
		}
		if v.cd == nil || v.cd.Degraded() {
			continue
		}
		excess := v.cd.Resident() - v.cd.Allocation()
		if excess <= 0 {
			continue
		}
		if excess > over {
			excess = over
		}
		got := v.cd.Reclaim(excess)
		sh.recount(v)
		over -= got
		waveGot += got
		sh.res.ReclaimedFrames += int64(got)
	}
	for over > 0 {
		v := sh.pickVictim()
		if v == nil {
			// Only one tenant (or only frame-less/grace-protected ones)
			// left over capacity — typically a degraded tenant under an
			// oscillation floor. Its overrun is tolerated and bounded by
			// its own address space.
			sh.res.Overruns++
			return
		}
		sh.suspend(v, "pressure")
		over = sh.usage() - frames
	}
	if sh.cfg.Checked {
		if u := sh.usage(); u > frames {
			sh.violate("frame-conservation", "",
				fmt.Sprintf("usage %d exceeds capacity %d after wave", u, frames))
		}
	}
}

// pickVictim chooses the pass-2 suspension victim: the largest resident
// set, ties to the smaller id. Freshly resumed tenants (grace) and
// tenants holding no frames are exempt, and the last active tenant is
// never suspended — suspending it could only thrash.
func (sh *shard) pickVictim() *tenant {
	if len(sh.active) <= 1 {
		return nil
	}
	var v *tenant
	for _, t := range sh.active {
		if t.grace || t.pol.Resident() == 0 {
			continue
		}
		if v == nil {
			v = t
			continue
		}
		rt, rv := t.pol.Resident(), v.pol.Resident()
		if rt > rv || (rt == rv && t.spec.ID < v.spec.ID) {
			v = t
		}
	}
	return v
}

// thrashCheck watches the shard's aggregate fault rate over a sliding
// reference window. Above the watermark it closes the admission gate and
// reduces the multiprogramming level (suspend the newest admission);
// persistent thrash additionally sheds never-admitted queued load.
func (sh *shard) thrashCheck() {
	if sh.winRefs < thrashWindow {
		return
	}
	rate := float64(sh.winFaults) * 1000 / float64(sh.winRefs)
	sh.winRefs, sh.winFaults = 0, 0
	if rate <= thrashRate {
		sh.thrashStreak = 0
		return
	}
	sh.thrashStreak++
	sh.res.ThrashEvents++
	sh.gateClosed = true
	sh.gateUntil = sh.clock + 8*policy.FaultService
	if len(sh.active) > 1 {
		var v *tenant
		for _, t := range sh.active {
			if t.grace {
				continue
			}
			if v == nil || t.admitSeq > v.admitSeq {
				v = t
			}
		}
		if v != nil {
			sh.suspend(v, "thrash")
		}
	}
	if sh.thrashStreak >= 3 {
		for i := len(sh.queue) - 1; i >= 0; i-- {
			t := sh.queue[i]
			if t.restarts > 0 {
				continue // was admitted once; must terminate, not shed
			}
			sh.queue = append(sh.queue[:i], sh.queue[i+1:]...)
			sh.shed(t, "thrash")
			break
		}
	}
}

// advanceClock hops the clock to the next schedulable instant: the
// earliest active wake-up, the suspension head's aging deadline, or the
// gate's hold-down expiry. With nothing to wait on it nudges by one tick
// and lets admission force progress.
func (sh *shard) advanceClock() {
	next := int64(math.MaxInt64)
	for _, t := range sh.active {
		if t.readyAt < next {
			next = t.readyAt
		}
	}
	if len(sh.suspended) > 0 {
		if a := sh.suspended[0].suspendedAt + agingTicks; a < next {
			next = a
		}
	}
	// A gate hold-down still in the future is a schedulable instant; an
	// expired one is not (the gate then waits on estSum, i.e. on some
	// active tenant's wake-up, already covered above).
	if sh.gateClosed && len(sh.queue) > 0 && sh.gateUntil > sh.clock && sh.gateUntil < next {
		next = sh.gateUntil
	}
	if next == math.MaxInt64 || next <= sh.clock {
		sh.clock++
		return
	}
	sh.res.Idle += next - sh.clock
	sh.clock = next
}

// checkRunning validates a running tenant's per-quantum invariants.
func (sh *shard) checkRunning(t *tenant) {
	if t.pol == nil {
		return
	}
	res := t.pol.Resident()
	if res > t.spec.V {
		sh.violate("resident-exceeds-v", t.spec.Name,
			fmt.Sprintf("resident %d > address space %d", res, t.spec.V))
	}
	if t.cd != nil && !t.cd.Degraded() && t.cd.LockedPages() > res {
		sh.violate("lock-balance", t.spec.Name,
			fmt.Sprintf("%d locked pages but only %d resident", t.cd.LockedPages(), res))
	}
}

// finalChecks verifies the shard's terminal invariants: every tenant in
// a terminal state, zero frames held, zero estimate charge outstanding.
func (sh *shard) finalChecks() {
	for _, t := range sh.tenants {
		if t.state != StateDone && t.state != StateShed {
			sh.violate("unreachable-tenant", t.spec.Name, "final state "+t.state.String())
		}
	}
	if sh.cfg.Checked {
		sh.auditUsage("at shard end")
	}
	if u := sh.sumResident(); u != 0 {
		sh.violate("frame-leak", "", fmt.Sprintf("%d frames resident after shutdown", u))
	}
	if len(sh.res.Violations) == 0 && sh.estSum != 0 {
		sh.violate("estimate-leak", "", fmt.Sprintf("admission charge %d outstanding", sh.estSum))
	}
}

// violate records an invariant violation (never panics: chaos runs must
// degrade, not crash) and fires the flight recorder.
func (sh *shard) violate(kind, tenant, detail string) {
	sh.res.Violations = append(sh.res.Violations, Violation{
		Shard: sh.idx, Kind: kind, Tenant: tenant, Detail: detail,
	})
	if sh.fr != nil {
		sh.flight("violation", tenant, kind+": "+detail)
		sh.incident("violation", tenant, kind+": "+detail)
	}
}
