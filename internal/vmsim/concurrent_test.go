package vmsim

import (
	"sync"
	"testing"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// syntheticTrace builds a looping reference string with enough distinct
// pages and re-reference structure to make every policy fault-interesting.
func syntheticTrace(pages, rounds int) *trace.Trace {
	tr := trace.New("concurrent")
	for r := 0; r < rounds; r++ {
		for p := 0; p < pages; p++ {
			tr.AddRef(mem.Page(p))
			if p%3 == 0 {
				tr.AddRef(mem.Page(p % 5)) // hot subset
			}
		}
	}
	tr.Finish()
	return tr
}

// TestRunConcurrentDistinctPolicies exercises the documented concurrency
// contract: concurrent Run calls over one immutable trace with DISTINCT
// policy values must produce exactly the sequential results. Run under
// -race this also proves the simulation loop shares no hidden state.
func TestRunConcurrentDistinctPolicies(t *testing.T) {
	tr := syntheticTrace(40, 6)
	type mk struct {
		name string
		make func() policy.Policy
	}
	mks := []mk{
		{"LRU8", func() policy.Policy { return policy.NewLRU(8) }},
		{"LRU16", func() policy.Policy { return policy.NewLRU(16) }},
		{"FIFO8", func() policy.Policy { return policy.NewFIFO(8) }},
		{"WS50", func() policy.Policy { return policy.NewWS(50) }},
		{"WS200", func() policy.Policy { return policy.NewWS(200) }},
	}

	want := make([]Result, len(mks))
	for i, m := range mks {
		want[i] = Run(tr, m.make())
	}

	const replicas = 4
	got := make([]Result, len(mks)*replicas)
	var wg sync.WaitGroup
	for rep := 0; rep < replicas; rep++ {
		for i, m := range mks {
			wg.Add(1)
			go func(slot int, make func() policy.Policy) {
				defer wg.Done()
				got[slot] = Run(tr, make())
			}(rep*len(mks)+i, m.make)
		}
	}
	wg.Wait()

	for rep := 0; rep < replicas; rep++ {
		for i, m := range mks {
			g := got[rep*len(mks)+i]
			if g != want[i] {
				t.Errorf("%s replica %d: concurrent result %+v != sequential %+v", m.name, rep, g, want[i])
			}
		}
	}
}
