package chaos

import (
	"bytes"
	"reflect"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// testTrace builds a trace with every event kind so each injector has
// something to perturb.
func testTrace() *trace.Trace {
	tr := trace.New("T")
	tr.AddAlloc(&directive.Allocate{Arms: []directive.Arm{{PI: 3, X: 12}, {PI: 2, X: 6}, {PI: 1, X: 2}}})
	for i := 0; i < 200; i++ {
		tr.AddRef(mem.Page(i % 12))
	}
	tr.AddLock(2, 0, []mem.Page{0, 1, 2})
	tr.AddAlloc(&directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 4}}})
	for i := 0; i < 200; i++ {
		tr.AddRef(mem.Page(i % 4))
	}
	tr.AddUnlock([]mem.Page{0, 1, 2})
	tr.AddAlloc(&directive.Allocate{Arms: []directive.Arm{{PI: 2, X: 8}, {PI: 1, X: 3}}})
	for i := 0; i < 100; i++ {
		tr.AddRef(mem.Page(i % 8))
	}
	return tr
}

// encode returns tr's CDT3 bytes, the canonical form two traces are
// compared in.
func encode(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.WriteCDT3(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeriveSeedIndependence: distinct cell identities must give distinct
// streams, identical identities identical ones, and part boundaries must
// matter.
func TestDeriveSeedIndependence(t *testing.T) {
	a := DeriveSeed(1, "MAIN", "drop-directives", "0.4")
	b := DeriveSeed(1, "MAIN", "drop-directives", "0.4")
	if a != b {
		t.Error("same identity, different seeds")
	}
	if a == DeriveSeed(2, "MAIN", "drop-directives", "0.4") {
		t.Error("base seed ignored")
	}
	if a == DeriveSeed(1, "MAIN", "drop-directives", "0.1") {
		t.Error("intensity part ignored")
	}
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Error("part boundaries not separated")
	}
}

// TestInjectorsDeterministic runs every perturbing fault twice with the
// same seed and requires bit-identical output, plus a different seed to
// actually produce a different perturbation at full intensity.
func TestInjectorsDeterministic(t *testing.T) {
	base := testTrace()
	for _, f := range Faults() {
		if f.Perturb == nil {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			a := f.Perturb(base, NewRand(42), 0.7)
			b := f.Perturb(base, NewRand(42), 0.7)
			if !bytes.Equal(encode(t, a), encode(t, b)) {
				t.Fatal("same seed produced different perturbations")
			}
		})
	}
}

// TestInjectorsFinishLongTraces: every perturbing fault returns a
// readable trace when its input is long enough to be built in chunks.
func TestInjectorsFinishLongTraces(t *testing.T) {
	base := trace.New("L")
	base.AddAlloc(&directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 8}}})
	base.AddLock(1, 0, []mem.Page{0})
	for i := 0; i < 100_000; i++ {
		base.AddRef(mem.Page(i % 50))
	}
	base.AddUnlock([]mem.Page{0})
	base.Finish()
	for _, f := range Faults() {
		if f.Perturb == nil {
			continue
		}
		out := f.Perturb(base, NewRand(3), 0.5)
		if got := len(out.Pages()); got != out.Refs {
			t.Errorf("%s: %d pages in a trace of %d references", f.Name, got, out.Refs)
		}
		encode(t, out)
	}
}

// TestInjectorsPreserveInput verifies injectors never mutate the shared
// compiled trace — the memoization contract.
func TestInjectorsPreserveInput(t *testing.T) {
	base := testTrace()
	want := testTrace() // independent twin for comparison
	for _, f := range Faults() {
		if f.Perturb == nil {
			continue
		}
		f.Perturb(base, NewRand(7), 1.0)
	}
	if !bytes.Equal(encode(t, base), encode(t, want)) {
		t.Error("an injector mutated the input trace")
	}
	if !reflect.DeepEqual(base.Allocs, want.Allocs) {
		t.Error("an injector mutated the input trace's alloc table")
	}
	if !reflect.DeepEqual(base.LockSets, want.LockSets) {
		t.Error("an injector mutated the input trace's lock table")
	}
	if !reflect.DeepEqual(base.UnlockSets, want.UnlockSets) {
		t.Error("an injector mutated the input trace's unlock table")
	}
}

// TestRetableForms: exactly the three side-table injectors have a
// table-level form; it leaves its input tables untouched and yields the
// tables of the fault's Perturb under the same draws.
func TestRetableForms(t *testing.T) {
	var names []string
	for _, f := range Faults() {
		if f.Retable == nil {
			continue
		}
		names = append(names, f.Name)
		base, want := testTrace(), testTrace()
		got := f.Retable(&base.SideTables, base.Meta(), NewRand(5), 1.0)
		if !reflect.DeepEqual(base.SideTables, want.SideTables) {
			t.Errorf("%s: Retable mutated its input tables", f.Name)
		}
		if p := f.Perturb(base, NewRand(5), 1.0).Tables(); !reflect.DeepEqual(got, p) {
			t.Errorf("%s: Retable %+v, Perturb's tables %+v", f.Name, got, p)
		}
		if reflect.DeepEqual(got, &want.SideTables) {
			t.Errorf("%s: intensity 1 left the tables unchanged", f.Name)
		}
	}
	if want := []string{"corrupt-priorities", "unknown-segment", "stale-directives"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("faults with a table-level form = %v, want %v", names, want)
	}
}

// TestZeroIntensityIsIdentity: at intensity 0 every injector must return
// the input stream unchanged (modulo the name suffix) — the guarantee
// that lets chaos-instrumented paths stay byte-identical when disabled.
func TestZeroIntensityIsIdentity(t *testing.T) {
	base := testTrace()
	for _, f := range Faults() {
		if f.Perturb == nil {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			got := f.Perturb(base, NewRand(9), 0)
			if !reflect.DeepEqual(events(got), events(base)) {
				t.Error("intensity 0 changed the event stream")
			}
			if got.Refs != base.Refs || got.Distinct != base.Distinct {
				t.Errorf("intensity 0 changed counters: %d/%d vs %d/%d",
					got.Refs, got.Distinct, base.Refs, base.Distinct)
			}
		})
	}
}

// TestTruncate checks the one deterministic injector precisely.
func TestTruncate(t *testing.T) {
	base := testTrace()
	half := truncateTrace(base, nil, 0.5)
	if want := base.Meta().Events / 2; half.Meta().Events != want {
		t.Errorf("events after 0.5 truncation = %d, want %d", half.Meta().Events, want)
	}
	if !reflect.DeepEqual(events(half), events(base)[:half.Meta().Events]) {
		t.Error("truncation is not a prefix of the original stream")
	}
	all := truncateTrace(base, nil, 1)
	if all.Meta().Events != 0 || all.Refs != 0 || all.Distinct != 0 {
		t.Errorf("full truncation left %d events, refs=%d", all.Meta().Events, all.Refs)
	}
}

// TestScheduleCap checks spike windows override the total.
func TestScheduleCap(t *testing.T) {
	s := &Schedule{Total: 50, Spikes: []Spike{{From: 10, To: 20, Cap: 3}}}
	if got := s.Cap(5); got != 50 {
		t.Errorf("Cap(5) = %d, want 50", got)
	}
	if got := s.Cap(10); got != 3 {
		t.Errorf("Cap(10) = %d, want 3", got)
	}
	if got := s.Cap(20); got != 50 {
		t.Errorf("Cap(20) = %d, want 50", got)
	}
}

// TestPressuredReclaims drives a CD policy into a capacity spike and
// checks the wrapper actually claws frames back.
func TestPressuredReclaims(t *testing.T) {
	cd := policy.NewCD(policy.SelectLevel(3), 2)
	sched := &Schedule{Total: 64, Spikes: []Spike{{From: 31, To: 60, Cap: 2}}}
	p := NewPressured(cd, sched)

	p.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 10}}})
	for i := 0; i < 30; i++ {
		p.Ref(mem.Page(i % 10))
	}
	if cd.Resident() != 10 {
		t.Fatalf("setup: resident = %d, want 10", cd.Resident())
	}
	p.Ref(mem.Page(0)) // clock enters the spike: reclaim to 2, then the ref faults in
	if cd.Resident() > 3 {
		t.Errorf("resident during spike = %d, want <= 3", cd.Resident())
	}
	// Alloc during the spike cannot be granted above the cap; the PI=1
	// request is ungrantable, raising the swap signal.
	p.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 10}}})
	if cd.SwapSignals == 0 {
		t.Error("ungrantable PI=1 request under pressure did not raise the swap signal")
	}
}

// TestMemPressureSchedulesBite verifies generated schedules always carry
// at least one spike with a cap small enough to press a real CD resident
// set at every intensity.
func TestMemPressureSchedulesBite(t *testing.T) {
	for _, intensity := range []float64{0.1, 0.4, 0.9} {
		s := memPressure(80, 10000, NewRand(3), intensity)
		if len(s.Spikes) == 0 {
			t.Fatalf("intensity %g: no spikes", intensity)
		}
		for _, sp := range s.Spikes {
			if sp.Cap < 1 || sp.Cap > 16 {
				t.Errorf("intensity %g: spike cap %d outside the biting range [1,16]", intensity, sp.Cap)
			}
			if sp.To <= sp.From {
				t.Errorf("intensity %g: empty spike window [%d,%d)", intensity, sp.From, sp.To)
			}
		}
	}
}

// TestRegistryOrderStable pins the registry: the original eleven faults
// in their matrix order, with later additions strictly appended, so
// every historical cell seed keeps its meaning.
func TestRegistryOrderStable(t *testing.T) {
	want := []string{
		"drop-directives", "dup-directives", "reorder-directives",
		"corrupt-priorities", "lock-no-unlock", "unknown-segment",
		"stale-directives", "bitflip-pages", "truncate", "wild-pages",
		"mem-pressure",
		"tenant-kill", "pressure-oscillate",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry order changed:\n got %v\nwant %v", got, want)
	}
}

// TestTenantKill: the perturbed trace must end with one complete replay
// (the successful attempt), preceded by prefix-shaped partial attempts.
func TestTenantKill(t *testing.T) {
	base := testTrace()
	out := tenantKill(base, NewRand(11), 1.0)
	got, want := events(out), events(base)
	if len(got) < len(want) {
		t.Fatalf("perturbed trace shorter than the original: %d < %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got[len(got)-len(want):], want) {
		t.Error("perturbed trace does not end with a complete replay")
	}
	// The partial attempts are prefixes, so the whole output replays only
	// pages (and directives) the original trace contains.
	if out.Refs < base.Refs {
		t.Errorf("refs = %d, want >= %d", out.Refs, base.Refs)
	}
	if out.Distinct != base.Distinct {
		t.Errorf("distinct = %d, want %d (prefixes introduce no new pages)", out.Distinct, base.Distinct)
	}
}

// TestPressureOscillate: the schedule must be a biting square wave —
// alternating full/floor half-periods spanning the run.
func TestPressureOscillate(t *testing.T) {
	for _, intensity := range []float64{0.2, 0.6, 1.0} {
		s := pressureOscillate(80, 12000, NewRand(5), intensity)
		if len(s.Spikes) < 2 {
			t.Fatalf("intensity %g: only %d low half-periods", intensity, len(s.Spikes))
		}
		floor := s.Spikes[0].Cap
		if floor < 1 || floor > 11 {
			t.Errorf("intensity %g: floor %d outside [1,11]", intensity, floor)
		}
		var prev Spike
		for i, sp := range s.Spikes {
			if sp.Cap != floor {
				t.Errorf("intensity %g: spike %d cap %d != floor %d (square wave must be uniform)", intensity, i, sp.Cap, floor)
			}
			if sp.To-sp.From != s.Spikes[0].To-s.Spikes[0].From {
				t.Errorf("intensity %g: uneven half-period at spike %d", intensity, i)
			}
			if i > 0 && sp.From-prev.To != sp.To-sp.From {
				t.Errorf("intensity %g: high half-period between spikes %d and %d is not one period", intensity, i-1, i)
			}
			prev = sp
		}
		if last := s.Spikes[len(s.Spikes)-1]; last.From >= 12000 {
			t.Errorf("intensity %g: last spike starts past the run", intensity)
		}
	}
}
