package engine

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cdmm/internal/obs"
	"cdmm/internal/vmsim"
)

// RunState is the lifecycle state of one declared run.
type RunState int32

const (
	// RunQueued: declared in a plan, not started yet.
	RunQueued RunState = iota
	// RunRunning: a worker is executing the run body.
	RunRunning
	// RunDone: finished without error.
	RunDone
	// RunFailed: finished with an error.
	RunFailed
	// RunDegraded: finished without error, but the simulation tripped the
	// CD directive-contract and served part of the run from its WS
	// fallback (vmsim.Result.Degraded).
	RunDegraded
)

// String returns the state's wire name (used in /progress JSON).
func (s RunState) String() string {
	switch s {
	case RunQueued:
		return "queued"
	case RunRunning:
		return "running"
	case RunDone:
		return "done"
	case RunFailed:
		return "failed"
	case RunDegraded:
		return "degraded"
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == RunDone || s == RunFailed || s == RunDegraded
}

// Progress tracks every plan and run an engine executes: lifecycle
// states, wall-clock attribution, live in-run position (trace offset and
// virtual time, updated lock-free from the simulation loop's periodic
// callbacks) and the PF/MEM/ST aggregates of finished runs. One Progress
// may be shared by several engines (the CLI attaches a single tracker to
// every engine a command builds); all methods are safe for concurrent
// use. Snapshots are cheap enough to serve on every HTTP poll.
type Progress struct {
	mu    sync.Mutex
	seq   atomic.Int64
	plans []*planEntry
	runs  []*runEntry
}

// NewProgress returns an empty tracker.
func NewProgress() *Progress {
	return &Progress{}
}

type planEntry struct {
	id       int
	label    string
	total    int
	started  time.Time
	finished time.Time // zero while in flight
}

type runEntry struct {
	id    int
	plan  int
	index int

	// live in-run position, stored lock-free by the progress callback.
	done  atomic.Int64
	total atomic.Int64
	vt    atomic.Int64

	// everything below is guarded by Progress.mu.
	label    string
	policy   string
	state    RunState
	started  time.Time
	finished time.Time
	err      string

	hasResult bool
	result    vmsim.Result
}

// startPlan registers a plan of n queued runs and returns the plan id
// and the id of its first run (run ids are global and contiguous).
func (p *Progress) startPlan(label string, n int) (planID, baseRunID int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	planID = len(p.plans)
	if label == "" {
		label = "plan-" + strconv.Itoa(planID)
	}
	p.plans = append(p.plans, &planEntry{id: planID, label: label, total: n, started: time.Now()})
	baseRunID = len(p.runs)
	for i := 0; i < n; i++ {
		p.runs = append(p.runs, &runEntry{id: baseRunID + i, plan: planID, index: i, state: RunQueued})
	}
	p.seq.Add(1)
	return planID, baseRunID
}

// finishPlan stamps the plan's wall-clock end.
func (p *Progress) finishPlan(planID int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if planID >= 0 && planID < len(p.plans) {
		p.plans[planID].finished = time.Now()
	}
	p.seq.Add(1)
}

// runStart marks the run as executing.
func (p *Progress) runStart(id int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.run(id)
	if r == nil {
		return
	}
	r.state = RunRunning
	r.started = time.Now()
	p.seq.Add(1)
}

// runFinish records the run's terminal state. res is the run body's
// result value; when it is (or wraps into) a vmsim.Result the tracker
// keeps the PF/MEM/ST aggregates and flips to RunDegraded if the
// simulation fell back.
func (p *Progress) runFinish(id int, res any, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.run(id)
	if r == nil {
		return
	}
	r.finished = time.Now()
	if vr, ok := res.(vmsim.Result); ok {
		r.setResult(vr)
	}
	switch {
	case err != nil:
		r.state = RunFailed
		r.err = err.Error()
	case r.hasResult && r.result.Degraded:
		r.state = RunDegraded
	default:
		r.state = RunDone
	}
	p.seq.Add(1)
}

// describe attaches a human label and policy name to the run.
func (p *Progress) describe(id int, label, policyName string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.run(id)
	if r == nil {
		return
	}
	if label != "" {
		r.label = label
	}
	if policyName != "" {
		r.policy = policyName
	}
	p.seq.Add(1)
}

// report stores the run's simulation result ahead of runFinish (run
// bodies whose return type is not vmsim.Result call this through
// RunCtx.Report so /runs/{id} still shows PF/MEM/ST).
func (p *Progress) report(id int, res vmsim.Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.run(id)
	if r == nil {
		return
	}
	r.setResult(res)
	p.seq.Add(1)
}

func (r *runEntry) setResult(res vmsim.Result) {
	r.hasResult = true
	r.result = res
	if r.policy == "" {
		r.policy = res.Policy
	}
}

// runProgressFn builds the lock-free in-run callback for one run; the
// simulation loop invokes it every few tens of thousands of events.
func (p *Progress) runProgressFn(id int) obs.ProgressFunc {
	p.mu.Lock()
	r := p.run(id)
	p.mu.Unlock()
	if r == nil {
		return nil
	}
	return func(done, total int, vt int64) {
		// Nested simulations (memoized prerequisites) reuse the same
		// callback; keep the furthest position rather than jumping back
		// when an inner, shorter run reports.
		if int64(total) >= r.total.Load() {
			r.done.Store(int64(done))
			r.total.Store(int64(total))
		}
		if vt > r.vt.Load() {
			r.vt.Store(vt)
		}
	}
}

// run returns the entry for id; callers hold p.mu.
func (p *Progress) run(id int) *runEntry {
	if id < 0 || id >= len(p.runs) {
		return nil
	}
	return p.runs[id]
}

// PlanSnapshot is one plan's status in a Snapshot.
type PlanSnapshot struct {
	ID       int     `json:"id"`
	Label    string  `json:"label"`
	Total    int     `json:"total"`
	Finished bool    `json:"finished"`
	WallMs   float64 `json:"wall_ms"`
}

// RunSnapshot is one run's status in a Snapshot.
type RunSnapshot struct {
	ID     int    `json:"id"`
	Plan   int    `json:"plan"`
	Index  int    `json:"index"`
	Label  string `json:"label,omitempty"`
	Policy string `json:"policy,omitempty"`
	State  string `json:"state"`
	// WallMs is wall-clock time attributed to the run: start to finish
	// (or to now while still running).
	WallMs float64 `json:"wall_ms"`
	// Done/Total are the live trace position (events or references,
	// path-dependent — consume the ratio); VirtualTime is the simulated
	// clock reached.
	Done        int64 `json:"done"`
	Total       int64 `json:"total"`
	VirtualTime int64 `json:"virtual_time"`
	// Aggregates of the (possibly still accumulating) result.
	Refs           int     `json:"refs,omitempty"`
	Faults         int     `json:"pf,omitempty"`
	Mem            float64 `json:"mem,omitempty"`
	ST             float64 `json:"st,omitempty"`
	Degraded       bool    `json:"degraded,omitempty"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	Err            string  `json:"error,omitempty"`
}

// Snapshot is the full tracker state at one instant.
type Snapshot struct {
	// Seq increases on every state change; pollers can cheaply detect
	// "nothing new".
	Seq int64 `json:"seq"`
	// Idle reports that no run is queued or running.
	Idle bool `json:"idle"`
	// Counts maps run state names to how many runs are in each.
	Counts map[string]int `json:"counts"`
	Plans  []PlanSnapshot `json:"plans"`
	Runs   []RunSnapshot  `json:"runs"`
}

// Snapshot copies the tracker state. Runs' live positions are read from
// their atomics, so a snapshot taken mid-plan shows in-flight trace
// offsets without stopping any worker.
func (p *Progress) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		Seq:    p.seq.Load(),
		Idle:   true,
		Counts: make(map[string]int, 5),
		Plans:  make([]PlanSnapshot, 0, len(p.plans)),
		Runs:   make([]RunSnapshot, 0, len(p.runs)),
	}
	now := time.Now()
	for _, pl := range p.plans {
		ps := PlanSnapshot{ID: pl.id, Label: pl.label, Total: pl.total, Finished: !pl.finished.IsZero()}
		end := pl.finished
		if end.IsZero() {
			end = now
		}
		ps.WallMs = float64(end.Sub(pl.started)) / float64(time.Millisecond)
		s.Plans = append(s.Plans, ps)
	}
	for _, r := range p.runs {
		s.Counts[r.state.String()]++
		if !r.state.Terminal() {
			s.Idle = false
		}
		s.Runs = append(s.Runs, p.runSnapshotLocked(r, now))
	}
	return s
}

// Run returns one run's snapshot by id.
func (p *Progress) Run(id int) (RunSnapshot, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.run(id)
	if r == nil {
		return RunSnapshot{}, false
	}
	return p.runSnapshotLocked(r, time.Now()), true
}

func (p *Progress) runSnapshotLocked(r *runEntry, now time.Time) RunSnapshot {
	rs := RunSnapshot{
		ID:          r.id,
		Plan:        r.plan,
		Index:       r.index,
		Label:       r.label,
		Policy:      r.policy,
		State:       r.state.String(),
		Done:        r.done.Load(),
		Total:       r.total.Load(),
		VirtualTime: r.vt.Load(),
		Err:         r.err,
	}
	if !r.started.IsZero() {
		end := r.finished
		if end.IsZero() {
			end = now
		}
		rs.WallMs = float64(end.Sub(r.started)) / float64(time.Millisecond)
	}
	if r.hasResult {
		rs.Refs = r.result.Refs
		rs.Faults = r.result.Faults
		rs.Mem = r.result.MEM()
		rs.ST = r.result.ST()
		rs.Degraded = r.result.Degraded
		rs.DegradedReason = r.result.DegradedReason
		if rs.VirtualTime < r.result.VirtualTime {
			rs.VirtualTime = r.result.VirtualTime
		}
		if rs.Total == 0 {
			rs.Done, rs.Total = int64(r.result.Refs), int64(r.result.Refs)
		}
	}
	return rs
}
