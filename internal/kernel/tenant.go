// Package kernel is the sharded multiprogrammed CD kernel: one global
// page-frame pool shared by simulated tenants, managed the way the
// paper's §4 operating-system component would manage it. It is the one
// multiprogramming engine: it runs thousands of synthesized tenants, or
// an explicit job list of real programs (Config.Jobs). The kernel
// partitions the pool into shards — each an independent deterministic
// discrete-event simulation — and runs the shards on the engine's
// worker pool, so results are byte-identical at any -j while aggregate
// throughput scales with cores.
//
// Robustness is the design center, in four layers:
//
//   - Admission control: tenants declare a footprint estimate (their
//     largest outer-arm ALLOCATE request); a hysteresis gate admits new
//     tenants only while the sum of admitted estimates is below the
//     shard's frames, and queues them FIFO otherwise, so overload turns
//     into queueing delay instead of thrash.
//   - Pressure-driven reclamation: when residency exceeds capacity the
//     shard runs a reclaim wave — PJ-ordered soft-lock release and LRU
//     eviction via CD.Reclaim first, then whole-tenant suspension under
//     a deterministic largest-resident victim policy. Tenants whose
//     directive streams misbehave degrade to a WS fallback
//     (policy.CheckConfig) instead of poisoning the pool.
//   - Fairness: suspended tenants sit in a FIFO and are force-resumed
//     after agingTicks even under pressure (one-quantum grace on
//     resume), giving a provable bound on suspension wait; an aggregate
//     fault-rate watermark detects thrash and sheds load instead of
//     collapsing.
//   - Checked runs: kernel-wide invariants (frame conservation, lock
//     bookkeeping audits, every admitted tenant terminates) are verified
//     during and after the run and reported as Violations, never panics.
package kernel

import (
	"fmt"
	"strconv"
	"sync"

	"cdmm/internal/chaos"
	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// State is a tenant's position in the kernel's lifecycle state machine:
//
//	Queued ──admit──▶ Running ──eof──▶ Done
//	   │                │  ▲
//	   │            suspend │ resume (aging-bounded)
//	   │                ▼  │
//	   │             Suspended
//	   └──shed──▶ Shed            (never-admitted tenants only)
type State int32

const (
	StateQueued State = iota
	StateRunning
	StateSuspended
	StateDone
	StateShed
)

// String renders the state for summaries and violations.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateDone:
		return "done"
	case StateShed:
		return "shed"
	}
	return "unknown"
}

// phase is one locality phase of a synthesized tenant: a working-set
// window swept cyclically, preceded by an ALLOCATE sized to the window
// and optionally covered by a soft LOCK over its first pages.
type phase struct {
	Base int // first page of the window
	W    int // working-set size in pages
	Refs int // references executed in the phase
	Lock int // pages locked for the phase's duration (0 = no LOCK)
	PJ   int // lock priority of the phase's LOCK
}

// SynthSpec describes one synthesized tenant. Specs are pure functions
// of (seed, id, scale) — see NewSynthSpec — so the whole population is
// reproducible without storing anything. A spec is also the tenant's
// trace.Source: its cursor generates the reference stream on demand, so
// a tenant costs a few dozen bytes plus one block's cursor state, never
// a stored trace.
type SynthSpec struct {
	ID     int
	Name   string
	Phases []phase
	// V is the tenant's address-space size in pages (CheckConfig.MaxPage).
	V int
	// Est is the declared footprint the admission gate charges: the
	// largest outer-arm ALLOCATE request across phases.
	Est int
	// Refs is the total reference count of the tenant's stream.
	Refs int
}

// NewSynthSpec derives tenant id's workload from the kernel seed. The
// generator draws 1-3 phases with working sets of 3-20 pages, reference
// counts of 400-2600 per phase (scaled by scale, floor 32), and a 40%
// chance of a 1-3 page LOCK with priority 1-3. The FORAY-GEN-style
// point: diversity comes from the seeded draw, not hand-written
// programs, so ten thousand tenants cost nothing to define.
func NewSynthSpec(seed uint64, id int, scale float64) SynthSpec {
	rng := chaos.NewRand(chaos.DeriveSeed(seed, "tenant", strconv.Itoa(id)))
	s := SynthSpec{ID: id, Name: fmt.Sprintf("t%05d", id)}
	n := 1 + rng.Intn(3)
	for p := 0; p < n; p++ {
		ph := phase{
			Base: rng.Intn(synthBases),
			W:    synthMinW + rng.Intn(synthMaxW-synthMinW+1),
			Refs: 400 + rng.Intn(2200),
		}
		if scale > 0 && scale != 1 {
			ph.Refs = int(float64(ph.Refs) * scale)
			if ph.Refs < 32 {
				ph.Refs = 32
			}
		}
		if rng.Bool(0.4) {
			ph.Lock = 1 + rng.Intn(3)
			if ph.Lock > ph.W {
				ph.Lock = ph.W
			}
			ph.PJ = 1 + rng.Intn(3)
		}
		s.Phases = append(s.Phases, ph)
		if est := ph.W + ph.Lock; est > s.Est {
			s.Est = est
		}
		// V must cover both the referenced pages and the largest request,
		// or the tenant's own directives would trip its validator.
		if v := ph.Base + ph.W; v > s.V {
			s.V = v
		}
		if v := ph.W + ph.Lock; v > s.V {
			s.V = v
		}
		s.Refs += ph.Refs
	}
	return s
}

// The windows NewSynthSpec draws: Base in [0, synthBases), W in
// [synthMinW, synthMaxW].
const (
	synthBases = 24
	synthMinW  = 3
	synthMaxW  = 20
	// cycleLen is the length of a window's cyclic row, and so the
	// longest run of references one block serves.
	cycleLen = 512
)

// cyclicRows holds one row per window NewSynthSpec can draw: the
// window's sweep Base, Base+1, …, Base+W−1, Base, … for cycleLen
// references. Every run of a phase's sweep is a sub-slice of its row, so
// the cursor serves references without writing any. The ~0.9 MB table
// is built on first use: commands that synthesize no tenant never pay
// for it.
var cyclicRows = sync.OnceValue(func() []mem.Page {
	rows := make([]mem.Page, 0, synthBases*(synthMaxW-synthMinW+1)*cycleLen)
	for base := 0; base < synthBases; base++ {
		for w := synthMinW; w <= synthMaxW; w++ {
			rows = appendCycle(rows, base, w, cycleLen)
		}
	}
	return rows
})

// appendCycle appends the first n references of the sweep of
// [base, base+w).
func appendCycle(dst []mem.Page, base, w, n int) []mem.Page {
	for i := 0; i < n; i++ {
		dst = append(dst, mem.Page(base+i%w))
	}
	return dst
}

// cyclicRow returns the read-only cyclic row of window [base, base+w):
// the shared one, or a private row (at least one cycle long) for a
// window outside the drawn ranges.
func cyclicRow(base, w int) []mem.Page {
	if base < 0 || base >= synthBases || w < synthMinW || w > synthMaxW {
		return appendCycle(nil, base, w, max(w, cycleLen))
	}
	i := (base*(synthMaxW-synthMinW+1) + w - synthMinW) * cycleLen
	return cyclicRows()[i : i+cycleLen : i+cycleLen]
}

// Meta implements trace.Source, computed from the spec alone. Each phase
// adds its references, its ALLOCATE and, when locked, a LOCK and an
// UNLOCK; it touches the first min(W, Refs) pages of its window.
func (s *SynthSpec) Meta() trace.Meta {
	m := trace.Meta{Name: s.Name, Refs: s.Refs, MaxPage: -1}
	for i, ph := range s.Phases {
		m.Events += ph.Refs + 1
		if ph.Lock > 0 {
			m.Events += 2
		}
		hi := ph.Base + min(ph.W, ph.Refs)
		for pg := ph.Base; pg < hi; pg++ {
			if !touched(s.Phases[:i], pg) {
				m.Distinct++
			}
		}
		if pg := mem.Page(hi - 1); hi > ph.Base && pg > m.MaxPage {
			m.MaxPage = pg
		}
	}
	return m
}

// touched reports whether any of the phases references page pg.
func touched(phases []phase, pg int) bool {
	for _, ph := range phases {
		if pg >= ph.Base && pg < ph.Base+min(ph.W, ph.Refs) {
			return true
		}
	}
	return false
}

// Tables implements trace.Source. Per phase there is one ALLOCATE
// else-chain ((2, W+L) else (1, W)) honoring the §3 contract; each
// locked phase adds a LOCK of the window's first L pages (its site is
// the phase index) and the UNLOCK of the same pages. Every call builds
// fresh tables.
func (s *SynthSpec) Tables() *trace.SideTables {
	tb := &trace.SideTables{Allocs: make([]trace.AllocDirective, len(s.Phases))}
	for i, ph := range s.Phases {
		tb.Allocs[i] = trace.AllocDirective{Arms: []directive.Arm{
			{PI: 2, X: ph.W + ph.Lock},
			{PI: 1, X: ph.W},
		}}
		if ph.Lock > 0 {
			locked := make([]mem.Page, ph.Lock)
			for j := range locked {
				locked[j] = mem.Page(ph.Base + j)
			}
			tb.LockSets = append(tb.LockSets, trace.LockSet{PJ: ph.PJ, Site: i, Pages: locked})
			tb.UnlockSets = append(tb.UnlockSets, locked)
		}
	}
	return tb
}

// Blocks implements trace.Source: a cursor that generates the stream
// as it goes, in O(1) memory. The spec carries no site column, so
// opts.WithSites is ignored.
func (s *SynthSpec) Blocks(opts trace.CursorOpts) trace.Cursor {
	return &synthCursor{s: s, max: opts.MaxBlock}
}

// Materialize copies the tenant's stream into an in-memory trace, for
// callers that need a *trace.Trace rather than a Source.
func (s *SynthSpec) Materialize() *trace.Trace {
	tr := trace.New(s.Name)
	tr.SideTables = *s.Tables()
	_ = trace.Walk(s, trace.CursorOpts{}, func(b trace.Block) bool {
		for _, pg := range b.Pages {
			tr.AddRef(pg)
		}
		if b.HasDir {
			tr.Append(b.Dir)
		}
		return true
	})
	return tr
}

// synthCursor walks a spec's phases. Per phase it serves the ALLOCATE,
// the LOCK if the phase is locked, the cyclic sweep of the window as
// runs sliced from the window's cyclic row, and the UNLOCK; each
// directive is a block of its own.
type synthCursor struct {
	s   *SynthSpec
	max int // block cap; 0 = a row's worth

	p    int        // current phase
	at   phaseStep  // phase p's next step
	r    int        // references of phase p served
	row  []mem.Page // phase p's cyclic row
	lock int32      // LockSets/UnlockSets index of phase p's lock
}

// phaseStep is a synthCursor's position within a phase.
type phaseStep uint8

const (
	stepAlloc phaseStep = iota
	stepLock
	stepSweep
	stepEnd
)

// Next implements trace.Cursor.
func (c *synthCursor) Next(b *trace.Block) bool {
	*b = trace.Block{DirSite: trace.NoSite}
	for c.p < len(c.s.Phases) {
		ph := &c.s.Phases[c.p]
		switch c.at {
		case stepAlloc:
			c.at, c.r, c.row = stepLock, 0, cyclicRow(ph.Base, ph.W)
			b.HasDir, b.Dir = true, trace.Event{Kind: trace.EvAlloc, Arg: int32(c.p)}
			return true
		case stepLock:
			c.at = stepSweep
			if ph.Lock > 0 {
				b.HasDir, b.Dir = true, trace.Event{Kind: trace.EvLock, Arg: c.lock}
				return true
			}
		case stepSweep:
			if c.r < ph.Refs {
				off := c.r % ph.W
				n := min(ph.Refs-c.r, len(c.row)-off)
				if c.max > 0 && n > c.max {
					n = c.max
				}
				b.Pages = c.row[off : off+n]
				c.r += n
				return true
			}
			c.at = stepEnd
			if ph.Lock > 0 {
				b.HasDir, b.Dir = true, trace.Event{Kind: trace.EvUnlock, Arg: c.lock}
				c.lock++
				return true
			}
		case stepEnd:
			c.p, c.at = c.p+1, stepAlloc
		}
	}
	return false
}

// Err implements trace.Cursor; generation cannot fail.
func (c *synthCursor) Err() error { return nil }

// Close implements trace.Cursor.
func (c *synthCursor) Close() error { return nil }

var _ trace.Source = (*SynthSpec)(nil)

// TenantResult is one tenant's final accounting, deterministic across
// shard parallelism and seeds.
type TenantResult struct {
	ID    int    `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`

	Refs   int64 `json:"refs"`
	Faults int64 `json:"pf"`
	MemSum int64 `json:"memSum"`
	VTime  int64 `json:"vtime"`

	Est int `json:"est"`
	V   int `json:"v"`

	Swaps    int `json:"swaps"`
	Restarts int `json:"restarts,omitempty"`

	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	ShedReason     string `json:"shedReason,omitempty"`

	QueueWait      int64 `json:"queueWait"`
	MaxSuspendWait int64 `json:"maxSuspendWait"`
	Finished       int64 `json:"finished"`
}

// tenant is the kernel-side runtime state of one admitted (or queued)
// tenant. Suspension resets the policy (frames are released and refault
// on resume) but never the stream position; only a chaos kill rewinds
// the stream.
type tenant struct {
	spec  SynthSpec
	job   *Job // the tenant's job in a job run, nil when synthesized
	state State

	pol policy.Policy
	cd  *policy.CD // non-nil only for a CD policy

	src     trace.Source // the base stream, or the base under chaos-perturbed tables
	cur     trace.Cursor
	tables  *trace.SideTables // src.Tables(), fetched once at first admission
	blk     trace.Block
	bi      int
	dirPend bool
	eof     bool

	readyAt int64
	// grace marks a tenant resumed this quantum: pressure waves skip it
	// until it has run once, so aging-forced resumes make real progress.
	grace bool
	// seenSignals tracks CD swap signals already acted on since the last
	// policy reset.
	seenSignals int

	// Chaos plan (fixed per tenant at kernel start).
	corrupt string // perturbing injector name, "" when clean
	killAt  int64  // refs threshold for a chaos kill; 0 = never

	queuedAt    int64
	suspendedAt int64
	admitSeq    int

	// Telemetry accumulators: per-quantum faults and resident-set
	// integral buffered here and flushed into the heavy-hitter sketches
	// only at scheduling transitions, keeping the O(k) sketch eviction
	// scan off the per-quantum path.
	telFaults, telMem int64

	// Folded accumulators (survive policy resets and restarts).
	refs, faults, memSum, vtime int64
	swaps, restarts             int
	signals, lockReleases       int64
	degraded                    bool
	degradedReason              string
	shedReason                  string
	queueWait                   int64
	maxSuspendWait              int64
	finished                    int64
}

// openStream positions the tenant at the start of its stream. A chaos
// kill rewinds by closing the cursor and opening a new one.
func (t *tenant) openStream() {
	t.cur = t.src.Blocks(trace.CursorOpts{})
	t.blk = trace.Block{}
	t.bi = 0
	t.dirPend = false
	t.eof = false
}

// closeStream releases the cursor and, when drop is set, the source and
// its tables (terminal states only).
func (t *tenant) closeStream(drop bool) {
	if t.cur != nil {
		t.cur.Close()
		t.cur = nil
	}
	t.blk = trace.Block{}
	if drop {
		t.src = nil
		t.tables = nil
	}
}

// foldPolicy folds the policy's per-reset counters and degradation latch
// into the tenant's accumulators. Call immediately before every
// pol.Reset(); the degraded latch is recorded at most once per tenant
// even if the policy re-degrades after a reset.
func (t *tenant) foldPolicy() (newlyDegraded bool) {
	if t.cd == nil {
		return false
	}
	t.signals += int64(t.cd.SwapSignals)
	t.lockReleases += int64(t.cd.LockReleases)
	t.seenSignals = 0
	if t.cd.Degraded() && !t.degraded {
		t.degraded = true
		t.degradedReason = t.cd.DegradedReason()
		return true
	}
	return false
}

// result snapshots the tenant's final accounting.
func (t *tenant) result() TenantResult {
	return TenantResult{
		ID:             t.spec.ID,
		Name:           t.spec.Name,
		State:          t.state.String(),
		Refs:           t.refs,
		Faults:         t.faults,
		MemSum:         t.memSum,
		VTime:          t.vtime,
		Est:            t.spec.Est,
		V:              t.spec.V,
		Swaps:          t.swaps,
		Restarts:       t.restarts,
		Degraded:       t.degraded,
		DegradedReason: t.degradedReason,
		ShedReason:     t.shedReason,
		QueueWait:      t.queueWait,
		MaxSuspendWait: t.maxSuspendWait,
		Finished:       t.finished,
	}
}
