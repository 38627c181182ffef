// Multiprogramming driver: the paper designs CD for multiprogramming (the
// priority-index machinery and the swapping mechanism of §4 exist for it)
// but evaluates only uniprogramming, noting "the performance of CD in a
// multiprogramming environment is still to be evaluated". This driver is
// that evaluation: several jobs share a fixed frame pool, page-fault
// service overlaps with the execution of other jobs, and the memory
// manager deactivates (swaps out) jobs under overcommitment — CD jobs by
// their own swap signal and lowest priority, WS jobs by the working-set
// principle (suspend when the working sets no longer fit).
package vmsim

import (
	"fmt"

	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// Job is one program in a multiprogramming mix. Trace names the job's
// reference stream; Source, when non-nil, overrides it so a job can
// replay a streamed (e.g. on-disk CDT3) trace instead of an in-memory
// one.
type Job struct {
	Name   string
	Trace  *trace.Trace
	Source trace.Source
	Policy policy.Policy

	// Stream position: the job consumes its cursor block by block,
	// pausing inside a block on faults and quantum expiry. Swap-outs
	// reset the policy, never the stream position.
	cur     trace.Cursor
	tables  *trace.SideTables
	blk     trace.Block
	bi      int  // next index into blk.Pages
	dirPend bool // blk's closing directive not yet applied
	eof     bool

	readyAt   int64 // global tick when the job can run again
	swappedIn bool
	done      bool
	// seenSignals tracks how many CD swap signals were already acted on.
	seenSignals int

	// Accumulated metrics.
	Faults   int
	Refs     int
	MemSum   float64
	Swaps    int // times this job was swapped out
	Finished int64
}

// MultiConfig configures the multiprogramming run.
type MultiConfig struct {
	// Frames is the size of the shared page-frame pool.
	Frames int
	// Quantum is the maximum references a job executes before the
	// round-robin scheduler rotates. Defaults to 500.
	Quantum int
	// SwapInDelay is the extra delay (in ticks) a swapped-out job pays
	// before resuming, on top of refaulting its pages. Defaults to
	// FaultService.
	SwapInDelay int64
	// Obs, when non-nil, receives job-tagged fault/swap/jobdone events
	// (T is the global clock) and mix-level metrics.
	Obs *obs.Observer
}

// MultiResult summarizes a multiprogramming run.
type MultiResult struct {
	Jobs      []*Job
	Makespan  int64 // global tick when the last job finished
	IdleTicks int64 // ticks with no job ready to run
	Swaps     int   // total swap-outs
}

// String renders a summary.
func (r *MultiResult) String() string {
	s := fmt.Sprintf("makespan=%d idle=%d swaps=%d", r.Makespan, r.IdleTicks, r.Swaps)
	for _, j := range r.Jobs {
		s += fmt.Sprintf("\n  %-10s PF=%-6d MEM=%6.2f finished@%d swaps=%d",
			j.Name, j.Faults, j.MEM(), j.Finished, j.Swaps)
	}
	return s
}

// MEM returns the job's average resident set over its executed references.
func (j *Job) MEM() float64 {
	if j.Refs == 0 {
		return 0
	}
	return j.MemSum / float64(j.Refs)
}

// RunMulti executes the job mix to completion over a shared frame pool.
// Each reference costs one global tick; a faulting job blocks for
// FaultService ticks while other jobs keep running (fault service
// overlaps). When the pool is overcommitted the driver swaps out the job
// holding the most frames (other than the one being served); CD jobs that
// raise their own swap signal (ungrantable PI = 1 request) are swapped out
// directly, as the Figure 6 flowchart prescribes.
func RunMulti(jobs []*Job, cfg MultiConfig) *MultiResult {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 500
	}
	if cfg.SwapInDelay <= 0 {
		cfg.SwapInDelay = policy.FaultService
	}
	if !cfg.Obs.Enabled() {
		cfg.Obs = nil
	}
	for _, j := range jobs {
		j.Policy.Reset()
		src := j.Source
		if src == nil {
			src = j.Trace
		}
		j.cur = src.Blocks(trace.CursorOpts{})
		j.tables = src.Tables()
		j.blk = trace.Block{}
		j.bi = 0
		j.dirPend = false
		j.eof = false
		j.readyAt = 0
		j.swappedIn = true
		j.done = false
		if cd := policy.AsCD(j.Policy); cd != nil {
			cd.Avail = func() int { return cfg.Frames - totalResident(jobs) }
		}
	}
	defer func() {
		for _, j := range jobs {
			j.cur.Close()
		}
	}()

	res := &MultiResult{Jobs: jobs}
	var clock int64
	next := 0 // round-robin cursor

	for {
		j := pickReady(jobs, &next, clock)
		if j == nil {
			// Nobody ready: advance the clock to the earliest wake-up.
			t, any := earliestReady(jobs)
			if !any {
				break // all done
			}
			if t > clock {
				res.IdleTicks += t - clock
				clock = t
			}
			continue
		}
		clock = runQuantum(j, jobs, cfg, clock, res)
	}

	for _, j := range jobs {
		if j.Finished > res.Makespan {
			res.Makespan = j.Finished
		}
	}
	if cfg.Obs != nil {
		faults := 0
		for _, j := range jobs {
			faults += j.Faults
		}
		if reg := cfg.Obs.Metrics; reg != nil {
			reg.Counter("multi_faults").Add(int64(faults))
			reg.Counter("multi_swaps").Add(int64(res.Swaps))
			reg.Gauge("makespan").Set(float64(res.Makespan))
			reg.Gauge("idle_ticks").Set(float64(res.IdleTicks))
		}
		cfg.Obs.Emit(obs.Event{Kind: obs.KindEnd, T: res.Makespan, Faults: faults})
	}
	return res
}

// runQuantum executes up to cfg.Quantum references of job j, returning the
// updated clock. The job yields early on a fault (service overlaps with
// other jobs) or at trace end.
func runQuantum(j *Job, jobs []*Job, cfg MultiConfig, clock int64, res *MultiResult) int64 {
	if !j.swappedIn {
		// Swap-in: the delay was charged at swap-out time; the pages
		// refault on demand from here.
		j.swappedIn = true
	}
	executed := 0
	for {
		// Refill: advance the cursor when the current block is consumed.
		// Refilling before the quantum check means a quantum that expires
		// exactly at stream end still observes the end immediately.
		for j.bi >= len(j.blk.Pages) && !j.dirPend && !j.eof {
			if !j.cur.Next(&j.blk) {
				j.eof = true
				break
			}
			j.bi = 0
			j.dirPend = j.blk.HasDir
		}
		if j.eof || executed >= cfg.Quantum {
			break
		}
		if j.bi < len(j.blk.Pages) {
			pg := j.blk.Pages[j.bi]
			j.bi++
			// Admission control: if the pool is overcommitted, swap out
			// the largest other job before serving this reference.
			if totalResident(jobs) >= cfg.Frames {
				swapOutVictim(jobs, j, clock, cfg, res)
			}
			fault := j.Policy.Ref(pg)
			executed++
			j.Refs++
			j.MemSum += float64(j.Policy.Resident())
			clock++
			if fault {
				j.Faults++
				j.readyAt = clock + policy.FaultService
				if cfg.Obs != nil {
					cfg.Obs.Emit(obs.Event{Kind: obs.KindFault, T: clock, Job: j.Name,
						Page: int(pg), Res: j.Policy.Resident()})
				}
				return clock // yield: fault service overlaps
			}
			continue
		}
		// The block's closing directive. Directives cost no quantum.
		j.dirPend = false
		ApplyDirective(j.Policy, j.tables, j.blk.Dir)
		if cd := policy.AsCD(j.Policy); cd != nil && cd.SwapSignals > j.seenSignals {
			j.seenSignals = cd.SwapSignals
			// The job's own PI = 1 ALLOCATE was ungrantable: swap out
			// this job (the §4 swapping mechanism).
			swapOut(j, clock, cfg, res, "signal")
			return clock
		}
	}
	if j.eof && !j.done {
		j.done = true
		j.Finished = clock
		j.Policy.Reset() // release frames
		if cfg.Obs != nil {
			cfg.Obs.Emit(obs.Event{Kind: obs.KindJobDone, T: clock, Job: j.Name,
				Refs: j.Refs, Faults: j.Faults})
		}
	}
	return clock
}

// swapOutVictim deactivates the job (other than cur) holding the most
// frames. Ties are broken explicitly so the victim sequence is a stable
// function of the plan: fewest prior swap-outs first (rotating the
// burden instead of repeatedly deactivating one job), then declaration
// order. The strict better() comparison means equal candidates never
// displace an earlier choice.
func swapOutVictim(jobs []*Job, cur *Job, clock int64, cfg MultiConfig, res *MultiResult) {
	better := func(a, b *Job) bool {
		if ra, rb := a.Policy.Resident(), b.Policy.Resident(); ra != rb {
			return ra > rb
		}
		return a.Swaps < b.Swaps
	}
	var victim *Job
	for _, j := range jobs {
		if j == cur || j.done || !j.swappedIn {
			continue
		}
		if victim == nil || better(j, victim) {
			victim = j
		}
	}
	if victim != nil && victim.Policy.Resident() > 0 {
		swapOut(victim, clock, cfg, res, "victim")
	}
}

// swapOut releases a job's frames and delays it. why tags the emitted
// swap event: "signal" (the job's own PI = 1 swap signal) or "victim"
// (deactivated under pool overcommitment).
func swapOut(j *Job, clock int64, cfg MultiConfig, res *MultiResult, why string) {
	if cfg.Obs != nil {
		cfg.Obs.Emit(obs.Event{Kind: obs.KindSwap, T: clock, Job: j.Name,
			Res: j.Policy.Resident(), Why: why})
	}
	if cd := policy.AsCD(j.Policy); cd != nil {
		// Preserve the CD swap-signal count across the reset so repeated
		// signals keep triggering swaps.
		signals := cd.SwapSignals
		avail := cd.Avail
		cd.Reset()
		cd.SwapSignals = signals
		cd.Avail = avail
	} else {
		j.Policy.Reset()
	}
	j.swappedIn = false
	j.Swaps++
	res.Swaps++
	if t := clock + cfg.SwapInDelay; t > j.readyAt {
		j.readyAt = t
	}
}

func totalResident(jobs []*Job) int {
	n := 0
	for _, j := range jobs {
		if !j.done {
			n += j.Policy.Resident()
		}
	}
	return n
}

// pickReady returns the next ready job in round-robin order, or nil.
func pickReady(jobs []*Job, next *int, clock int64) *Job {
	for i := 0; i < len(jobs); i++ {
		j := jobs[(*next+i)%len(jobs)]
		if !j.done && j.readyAt <= clock {
			*next = (*next + i + 1) % len(jobs)
			return j
		}
	}
	return nil
}

// earliestReady returns the earliest wake-up among unfinished jobs.
func earliestReady(jobs []*Job) (int64, bool) {
	var t int64
	any := false
	for _, j := range jobs {
		if j.done {
			continue
		}
		if !any || j.readyAt < t {
			t = j.readyAt
			any = true
		}
	}
	return t, any
}
