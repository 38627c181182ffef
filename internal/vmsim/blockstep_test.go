package vmsim

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

// End-to-end differential for the block-stepped streaming plane: on every
// built-in workload (and randomized traces), the simulator must produce
// the identical Result — and the identical eviction sequence — whether
// the policy replays through StepBlock (the hot path), through the
// generic per-reference loop (the oracle, forced by a wrapper hiding the
// fast-path interfaces), or streamed chunk by chunk from an on-disk CDT3
// file.

// perRefOnly hides BlockStepper so the replay loop takes the generic
// per-reference policy.StepRef path, while Unwrap keeps AsCD and the
// page hints seeing the real policy.
type perRefOnly struct {
	inner policy.Policy
}

func (w *perRefOnly) Name() string                 { return w.inner.Name() }
func (w *perRefOnly) Ref(pg mem.Page) bool         { return w.inner.Ref(pg) }
func (w *perRefOnly) Resident() int                { return w.inner.Resident() }
func (w *perRefOnly) Alloc(d trace.AllocDirective) { w.inner.Alloc(d) }
func (w *perRefOnly) Lock(ls trace.LockSet)        { w.inner.Lock(ls) }
func (w *perRefOnly) Unlock(pages []mem.Page)      { w.inner.Unlock(pages) }
func (w *perRefOnly) Reset()                       { w.inner.Reset() }
func (w *perRefOnly) Charged() int                 { return policy.Charge(w.inner) }
func (w *perRefOnly) Unwrap() policy.Policy        { return w.inner }
func (w *perRefOnly) SetEvictHook(fn func(pg mem.Page)) {
	w.inner.(policy.EvictObserver).SetEvictHook(fn)
}

// hookEvictions installs an eviction recorder when the policy supports
// one (the hook survives Reset, so installing before Run is safe).
func hookEvictions(p policy.Policy) *[]mem.Page {
	seq := &[]mem.Page{}
	if eo, ok := p.(policy.EvictObserver); ok {
		eo.SetEvictHook(func(pg mem.Page) { *seq = append(*seq, pg) })
	}
	return seq
}

// sameResult compares every index the simulator accumulates.
func sameResult(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got != want {
		t.Fatalf("%s:\n got %+v\nwant %+v", tag, got, want)
	}
}

func sameEvictions(t *testing.T, tag string, got, want []mem.Page) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d evictions, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: eviction %d = %d, want %d", tag, i, got[i], want[i])
		}
	}
}

// writeCDT3Temp writes tr to a CDT3 file with small chunks, so the
// streamed replay crosses many chunk boundaries.
func writeCDT3Temp(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), tr.Name+".cdt3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteCDT3(f, tr, 512); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runThreeWays replays tr under three fresh policies from mk — block
// path, forced per-ref path, streamed CDT3 file — and asserts identical
// Results and eviction sequences.
func runThreeWays(t *testing.T, tag string, tr *trace.Trace, cdt3 string, mk func() policy.Policy) {
	t.Helper()
	pBlock := mk()
	evBlock := hookEvictions(pBlock)
	resBlock := Run(tr, pBlock)

	pRef := mk()
	wrapped := &perRefOnly{inner: pRef}
	var evRef *[]mem.Page
	if _, ok := pRef.(policy.EvictObserver); ok {
		evRef = hookEvictions(policy.Policy(wrapped))
	} else {
		evRef = &[]mem.Page{}
	}
	resRef := Run(tr, wrapped)

	src, err := trace.OpenCDT3(cdt3)
	if err != nil {
		t.Fatal(err)
	}
	pStream := mk()
	evStream := hookEvictions(pStream)
	resStream, err := RunSource(src, pStream, nil)
	if err != nil {
		t.Fatalf("%s: streamed replay failed: %v", tag, err)
	}

	sameResult(t, tag+": block vs per-ref", resBlock, resRef)
	sameResult(t, tag+": block vs streamed", resBlock, resStream)
	sameEvictions(t, tag+": block vs per-ref", *evBlock, *evRef)
	sameEvictions(t, tag+": block vs streamed", *evBlock, *evStream)
}

// TestBlockStepAllWorkloads runs the three-way differential on every
// built-in workload under CD, LRU, FIFO, WS, DWS, PFF, SWS, VSWS and OPT.
func TestBlockStepAllWorkloads(t *testing.T) {
	progs := workloads.All()
	if len(progs) < 9 {
		t.Fatalf("workload suite shrank: %d programs", len(progs))
	}
	for _, p := range progs {
		c, tr := compiled(t, p.Name)
		cdt3 := writeCDT3Temp(t, tr)
		sel := p.DefaultSet().Selector()
		v := c.V()
		for _, pc := range []struct {
			name string
			mk   func() policy.Policy
		}{
			{"CD", func() policy.Policy { return policy.NewCD(sel, 2) }},
			{"LRU", func() policy.Policy { return policy.NewLRU(v/2 + 1) }},
			{"FIFO", func() policy.Policy { return policy.NewFIFO(v/3 + 1) }},
			{"WS", func() policy.Policy { return policy.NewWS(200) }},
			{"DWS", func() policy.Policy { return policy.NewDWS(150, 10) }},
			{"PFF", func() policy.Policy { return policy.NewPFF(100) }},
			{"SWS", func() policy.Policy { return policy.NewSWS(200) }},
			{"VSWS", func() policy.Policy { return policy.NewVSWS(50, 400, 4) }},
			{"OPT", func() policy.Policy { return policy.NewOPT(tr.Pages(), v/2+1) }},
		} {
			runThreeWays(t, p.Name+"/"+pc.name, tr, cdt3, pc.mk)
		}
	}
}

// TestBlockStepRandomTraces repeats the differential on randomized
// reference strings (locality runs plus uniform jumps, no directives) at
// several allocations, so trace shapes the workload suite never produces
// are covered too.
func TestBlockStepRandomTraces(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := trace.New(fmt.Sprintf("RAND%d", seed))
		pg := mem.Page(r.Intn(64))
		for i := 0; i < 5000; i++ {
			switch r.Intn(10) {
			case 0:
				pg = mem.Page(r.Intn(512)) // jump, possibly far
			case 1, 2:
				if pg > 0 {
					pg--
				}
			default:
				pg++ // sequential run
			}
			tr.AddRef(pg)
		}
		cdt3 := writeCDT3Temp(t, tr)
		// Draw the policy parameters once so all three paths replay the
		// identical configuration.
		frames := 1 + r.Intn(40)
		tau := 1 + r.Intn(400)
		damp := 1 + r.Intn(20)
		for _, pc := range []struct {
			name string
			mk   func() policy.Policy
		}{
			{"LRU", func() policy.Policy { return policy.NewLRU(frames) }},
			{"FIFO", func() policy.Policy { return policy.NewFIFO(frames) }},
			{"WS", func() policy.Policy { return policy.NewWS(tau) }},
			{"DWS", func() policy.Policy { return policy.NewDWS(tau, damp) }},
		} {
			runThreeWays(t, fmt.Sprintf("%s/%s", tr.Name, pc.name), tr, cdt3, pc.mk)
		}
	}
}
