package vmsim_test

// The multiprogramming scenarios below run job mixes through the kernel's
// job list (kernel.Config.Jobs), the one multiprogramming engine. They
// sit beside the uniprogramming replay because it is their oracle: a job
// alone in an ample pool must replay exactly as vmsim.RunSource does.

import (
	"reflect"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/engine"
	"cdmm/internal/kernel"
	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// loopTrace builds a trace cycling over pages [base, base+n) for rounds.
func loopTrace(name string, base, n, rounds int) *trace.Trace {
	return addLoop(trace.New(name), base, n, rounds)
}

// addLoop appends rounds sweeps over pages [base, base+n) to tr.
func addLoop(tr *trace.Trace, base, n, rounds int) *trace.Trace {
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			tr.AddRef(mem.Page(base + i))
		}
	}
	tr.Finish()
	return tr
}

// runJobs runs the jobs over a shared pool of frames in checked mode and
// returns the result with the run's event stream. Any invariant
// violation fails the test.
func runJobs(t *testing.T, frames int, jobs ...kernel.Job) (*kernel.Result, []obs.Event) {
	t.Helper()
	col := &obs.Collector{}
	eng := engine.New(1).WithObserver(&obs.Observer{Tracer: col})
	res, err := kernel.Run(kernel.Config{Jobs: jobs, Frames: frames, Checked: true}, eng)
	if err != nil {
		t.Fatalf("kernel.Run: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Done != int64(len(jobs)) {
		t.Fatalf("%d of %d jobs done:\n%v", res.Done, len(jobs), res)
	}
	return res, col.Events
}

// swapEvents filters an event stream down to swap-outs.
func swapEvents(events []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Kind == obs.KindSwap {
			out = append(out, e)
		}
	}
	return out
}

// TestMultiSingleJobMatchesUniprogramming is the differential oracle: a
// job alone in a pool larger than its address space is never suspended
// and never short of frames, so the kernel's quantum-sliced replay must
// equal the uniprogramming replay exactly, for CD, WS, LRU and PFF.
func TestMultiSingleJobMatchesUniprogramming(t *testing.T) {
	for _, name := range []string{"TQL", "HWSCRT", "MAIN"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := workloads.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.Trace()
		if err != nil {
			t.Fatal(err)
		}
		for _, mk := range []func() policy.Policy{
			func() policy.Policy { return policy.NewCD(w.DefaultSet().Selector(), 2) },
			func() policy.Policy { return policy.NewWS(1000) },
			func() policy.Policy { return policy.NewLRU(c.V() / 2) },
			// PFF has no StepBlock: the kernel steps it per reference.
			func() policy.Policy { return policy.NewPFF(100) },
		} {
			uni, err := vmsim.RunSource(tr, mk(), nil)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := runJobs(t, 1000, kernel.Job{Source: tr, Policy: mk()})
			got := res.PerTenant[0]
			if got.Name != name || got.Swaps != 0 || got.Faults != int64(uni.Faults) ||
				got.Refs != int64(uni.Refs) || got.MemSum != int64(uni.MemSum) || got.VTime != uni.VirtualTime {
				t.Errorf("%s %s: job %+v, uniprogramming %+v", name, uni.Policy, got, uni)
			}
		}
	}
}

// TestMultiFaultServiceOverlaps: with ample frames, one job runs while
// the other is in fault service, so the mix completes far sooner than
// the two jobs' serial virtual time.
func TestMultiFaultServiceOverlaps(t *testing.T) {
	a, b := loopTrace("a", 0, 8, 100), loopTrace("b", 100, 8, 100)
	res, _ := runJobs(t, 64,
		kernel.Job{Source: a, Policy: policy.NewWS(64)},
		kernel.Job{Source: b, Policy: policy.NewWS(64)})
	serial := vmsim.Run(a, policy.NewWS(64)).VirtualTime + vmsim.Run(b, policy.NewWS(64)).VirtualTime
	for _, j := range res.PerTenant {
		if j.Faults != 8 || j.Finished >= serial {
			t.Errorf("job %s: %d faults, finished at %d; want 8 faults, finished before the serial %d", j.Name, j.Faults, j.Finished, serial)
		}
	}
}

// TestMultiPoolPressureCausesSwaps: two 8-page working sets cannot share
// 10 frames, so the kernel suspends one at a time; suspended jobs refault
// their pages and still finish.
func TestMultiPoolPressureCausesSwaps(t *testing.T) {
	res, _ := runJobs(t, 10,
		kernel.Job{Source: loopTrace("a", 0, 8, 200), Policy: policy.NewWS(1000)},
		kernel.Job{Source: loopTrace("b", 100, 8, 200), Policy: policy.NewWS(1000)})
	if res.Suspends == 0 {
		t.Error("expected suspensions under pool pressure")
	}
	if res.Faults <= 16 {
		t.Errorf("%d faults: suspended jobs must refault their pages", res.Faults)
	}
}

// TestMultiprogEvents checks the job-tagged event stream of a pressured
// mix: one swap event per suspension, each tagged with its reason and
// job, and one jobdone event per job.
func TestMultiprogEvents(t *testing.T) {
	res, events := runJobs(t, 10,
		kernel.Job{Source: loopTrace("a", 0, 8, 200), Policy: policy.NewWS(1000)},
		kernel.Job{Source: loopTrace("b", 100, 8, 200), Policy: policy.NewWS(1000)})
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.Kind == obs.KindSwap && (e.Why != "pressure" || (e.Job != "a" && e.Job != "b")) {
			t.Errorf("swap event %+v: want a pressure suspension of job a or b", e)
		}
	}
	if int64(kinds[obs.KindSwap]) != res.Suspends || res.Suspends == 0 {
		t.Errorf("%d swap events, %d suspensions", kinds[obs.KindSwap], res.Suspends)
	}
	if kinds[obs.KindJobDone] != 2 {
		t.Errorf("%d jobdone events, want 2 (kinds %v)", kinds[obs.KindJobDone], kinds)
	}
}

// TestMultiOvercommitVictimSelection: when a 10-page and a 3-page working
// set overcommit 12 frames, the pressure wave suspends the largest
// resident set, and only it.
func TestMultiOvercommitVictimSelection(t *testing.T) {
	res, events := runJobs(t, 12,
		kernel.Job{Source: loopTrace("big", 0, 10, 3000), Policy: policy.NewWS(100000)},
		kernel.Job{Source: loopTrace("small", 100, 3, 10000), Policy: policy.NewWS(100000)})
	swaps := swapEvents(events)
	if len(swaps) == 0 {
		t.Fatal("overcommitted pool suspended nobody")
	}
	for _, e := range swaps {
		if e.Job != "big" || e.Res != 10 || e.Why != "pressure" {
			t.Errorf("swap %+v: want big suspended under pressure holding 10 frames", e)
		}
	}
	if int64(len(swaps)) != res.Suspends {
		t.Errorf("result counts %d suspensions, events show %d", res.Suspends, len(swaps))
	}
}

// cdSignalJob is a CD job whose PI = 1 request for 50 pages cannot be
// granted from a 16-frame pool.
func cdSignalJob(rounds int) kernel.Job {
	tr := trace.New("cd")
	tr.AddAlloc(&directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 50}}})
	return kernel.Job{Source: addLoop(tr, 0, 12, rounds), Policy: policy.NewCD(policy.SelectLevel(1), 2)}
}

// TestMultiCDSwapSignal: a CD job whose PI = 1 request exceeds the pool
// raises its swap signal and is suspended rather than thrashing, then
// finishes after resuming. Its policy leaves the run unhooked from the
// pool, so a later uniprogramming replay of it sees unbounded memory.
func TestMultiCDSwapSignal(t *testing.T) {
	job := cdSignalJob(3)
	res, _ := runJobs(t, 16, job,
		kernel.Job{Source: loopTrace("filler", 100, 4, 400), Policy: policy.NewWS(64)})
	if cd := res.PerTenant[0]; cd.Swaps == 0 || cd.State != "done" {
		t.Errorf("CD job %+v: want suspended on its signal, then done", cd)
	}
	reused, _ := vmsim.RunSource(job.Source, job.Policy, nil)
	fresh, _ := vmsim.RunSource(job.Source, cdSignalJob(3).Policy, nil)
	if reused != fresh {
		t.Errorf("replaying the job's policy after the run: %v, a fresh policy: %v", reused, fresh)
	}
}

// TestMultiCDSignalPrecedesPressureEviction pins the order between CD's
// own swap signal and pressure suspension: the ungrantable ALLOCATE
// suspends the job (tagged "signal") when the directive executes, before
// it holds a frame, rather than waiting for the pool to overcommit.
func TestMultiCDSignalPrecedesPressureEviction(t *testing.T) {
	_, events := runJobs(t, 16, cdSignalJob(5),
		kernel.Job{Source: loopTrace("ws", 100, 6, 200), Policy: policy.NewWS(2000)})
	for _, e := range swapEvents(events) {
		if e.Job != "cd" {
			continue
		}
		if e.Why != "signal" || e.Res != 0 {
			t.Errorf("first CD swap %+v: want its own signal with 0 frames resident", e)
		}
		return
	}
	t.Fatal("CD job never suspended")
}

// TestMultiWSJobsNeverSelfSignal: WS jobs have no directive machinery,
// so an overcommitted WS mix is suspended by the kernel alone, never by
// a swap signal.
func TestMultiWSJobsNeverSelfSignal(t *testing.T) {
	res, events := runJobs(t, 15,
		kernel.Job{Source: loopTrace("a", 0, 7, 150), Policy: policy.NewWS(5000)},
		kernel.Job{Source: loopTrace("b", 50, 7, 150), Policy: policy.NewWS(5000)},
		kernel.Job{Source: loopTrace("c", 90, 7, 150), Policy: policy.NewWS(5000)})
	if res.Suspends == 0 {
		t.Fatal("three 7-page working sets over 15 frames must overcommit")
	}
	for _, e := range swapEvents(events) {
		if e.Why == "signal" {
			t.Errorf("WS job %s raised a CD swap signal", e.Job)
		}
	}
}

// TestMultiDegradedCDJobCompletes: a CD job whose directive stream
// violates the contract mid-run degrades to its WS fallback once, still
// serves every reference under pool pressure, and leaves no page locked.
func TestMultiDegradedCDJobCompletes(t *testing.T) {
	bad := trace.New("bad-cd")
	bad.AddAlloc(&directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 6}}})
	for i := 0; i < 30; i++ {
		bad.AddRef(mem.Page(i % 6))
	}
	bad.AddLock(1, 0, []mem.Page{0, 1})
	// Contract violation mid-trace: a non-decreasing priority chain.
	bad.AddAlloc(&directive.Allocate{Arms: []directive.Arm{{PI: 2, X: 4}, {PI: 2, X: 4}}})
	for i := 0; i < 60; i++ {
		bad.AddRef(mem.Page(i % 6))
	}
	cd := policy.NewCD(policy.SelectLevel(2), 2)
	cd.Check = &policy.CheckConfig{MaxPage: 8}
	res, _ := runJobs(t, 10, kernel.Job{Source: bad, Policy: cd},
		kernel.Job{Source: loopTrace("filler", 100, 6, 100), Policy: policy.NewWS(2000)})
	job := res.PerTenant[0]
	if !job.Degraded || res.Degraded != 1 {
		t.Errorf("job %+v, %d degradations: want exactly one", job, res.Degraded)
	}
	if job.Refs != int64(bad.Refs) {
		t.Errorf("degraded job served %d of %d refs", job.Refs, bad.Refs)
	}
	if cd.LockedPages() != 0 {
		t.Errorf("%d pages still locked after the run", cd.LockedPages())
	}
}

// mixedJobs is a CD/WS/LRU mix whose resident sets (6 + 8 + 6 pages)
// overcommit a 12-frame pool.
func mixedJobs() []kernel.Job {
	cd := trace.New("cd")
	cd.AddAlloc(&directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 6}}})
	return []kernel.Job{
		{Source: addLoop(cd, 0, 6, 120), Policy: policy.NewCD(policy.SelectLevel(1), 2)},
		{Source: loopTrace("ws", 100, 8, 150), Policy: policy.NewWS(1000)},
		{Source: loopTrace("lru", 200, 8, 150), Policy: policy.NewLRU(6)},
	}
}

// TestMultiJobAccountingInvariants checks per-job accounting across the
// pressured mixed mix: every reference is served exactly once, every
// distinct page faults at least once, memory integrals are sane, and the
// per-job suspension counts sum to the run's.
func TestMultiJobAccountingInvariants(t *testing.T) {
	jobs := mixedJobs()
	res, _ := runJobs(t, 12, jobs...)
	swaps := 0
	for i, j := range res.PerTenant {
		m := jobs[i].Source.Meta()
		if j.Refs != int64(m.Refs) {
			t.Errorf("job %s served %d refs, trace has %d", j.Name, j.Refs, m.Refs)
		}
		if j.Faults < int64(m.Distinct) {
			t.Errorf("job %s faults=%d < distinct pages %d", j.Name, j.Faults, m.Distinct)
		}
		if mean := float64(j.MemSum) / float64(j.Refs); mean < 1 || mean > float64(m.Distinct) {
			t.Errorf("job %s mean resident %g outside [1, V=%d]", j.Name, mean, m.Distinct)
		}
		swaps += j.Swaps
	}
	if int64(swaps) != res.Suspends {
		t.Errorf("per-job swaps sum to %d, the run counts %d suspensions", swaps, res.Suspends)
	}
	if res.Suspends == 0 {
		t.Error("the mix was sized to force pool pressure but nobody was suspended")
	}
}

// TestMultiDeterministic: the same mix gives equal results run to run.
func TestMultiDeterministic(t *testing.T) {
	a, _ := runJobs(t, 12, mixedJobs()...)
	b, _ := runJobs(t, 12, mixedJobs()...)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic:\n%v\nvs\n%v", a, b)
	}
}
