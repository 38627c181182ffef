package kernel

import (
	"testing"

	"cdmm/internal/engine"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

// synthJobs turns the first n tenants synthesized from seed into a job
// list, each job under a caller-built policy picked in rotation from
// pick: CD with its validator, CD without one, WS or LRU.
func synthJobs(seed uint64, n int, scale float64, pick int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		spec := NewSynthSpec(seed, i, scale)
		var pol policy.Policy
		switch (pick + i) % 4 {
		case 0:
			cd := policy.NewCD(policy.SelectLevel(2), 2)
			cd.Check = &policy.CheckConfig{MaxPage: spec.V}
			pol = cd
		case 1:
			pol = policy.NewCD(policy.SelectLevel(2), 2)
		case 2:
			pol = policy.NewWS(policy.DefaultFallbackTau)
		default:
			pol = policy.NewLRU(spec.Est)
		}
		jobs[i] = Job{Source: &spec, Policy: pol}
	}
	return jobs
}

// specJobs is a valid job list of n small synthesized tenants.
func specJobs(n int) []Job { return synthJobs(1, n, 0.25, 0) }

// TestAblationBMultiprogramming pins Ablation B's conclusions as a
// property of the TQL+HWSCRT+MAIN mix, CD with the canonical directive
// sets against WS with τ = 1000, at the default quantum and at 500
// references. At 80 frames CD completes first and is suspended less
// often. At 60 frames the Figure 6 rule keeps every CD job inside the
// frames its Avail hook reports, so none is suspended and CD thrashes
// through its large-locality phases, while WS completes first. A CD
// policy that saw unlimited memory would be suspended at 60 frames.
func TestAblationBMultiprogramming(t *testing.T) {
	var progs []*workloads.Program
	var traces []*trace.Trace
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
		progs = append(progs, w)
		traces = append(traces, tr)
	}
	// run returns the mix's completion (the last job's finish time) and
	// its suspension count.
	run := func(frames, quantum int, cd bool) (int64, int64) {
		jobs := make([]Job, len(progs))
		for i, w := range progs {
			var pol policy.Policy = policy.NewWS(1000)
			if cd {
				pol = policy.NewCD(w.DefaultSet().Selector(), 2)
			}
			jobs[i] = Job{Source: traces[i], Policy: pol}
		}
		res := mustRun(t, Config{Jobs: jobs, Frames: frames, Quantum: quantum, Checked: true}, engine.New(1))
		if len(res.Violations) != 0 || res.Done != int64(len(jobs)) {
			t.Fatalf("frames %d quantum %d cd %v: %v", frames, quantum, cd, res)
		}
		var done int64
		for _, j := range res.PerTenant {
			done = max(done, j.Finished)
		}
		return done, res.Suspends
	}
	for _, q := range []int{512, 500} {
		cdDone, cdSusp := run(80, q, true)
		wsDone, wsSusp := run(80, q, false)
		if cdDone >= wsDone || cdSusp >= wsSusp {
			t.Errorf("80 frames, quantum %d: CD completed at %d with %d suspends, WS at %d with %d; want CD first and suspended less",
				q, cdDone, cdSusp, wsDone, wsSusp)
		}
		cdDone, cdSusp = run(60, q, true)
		wsDone, _ = run(60, q, false)
		if wsDone >= cdDone || cdSusp != 0 {
			t.Errorf("60 frames, quantum %d: CD completed at %d with %d suspends, WS at %d; want WS first and CD never suspended",
				q, cdDone, cdSusp, wsDone)
		}
	}
}
