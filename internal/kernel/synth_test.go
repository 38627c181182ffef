package kernel

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cdmm/internal/chaos"
	"cdmm/internal/directive"
	"cdmm/internal/engine"
	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// materializeOracle is the per-reference tenant stream the lazy source
// must reproduce: per phase, an ALLOCATE else-chain ((2, W+L) else
// (1, W)), an optional LOCK over the window's first pages, a cyclic
// sweep of the window appended one reference at a time, and the closing
// UNLOCK.
func materializeOracle(s *SynthSpec) *trace.Trace {
	tr := trace.New(s.Name)
	for i := range s.Phases {
		ph := &s.Phases[i]
		tr.AddAlloc(&directive.Allocate{Arms: []directive.Arm{
			{PI: 2, X: ph.W + ph.Lock},
			{PI: 1, X: ph.W},
		}})
		var locked []mem.Page
		if ph.Lock > 0 {
			locked = make([]mem.Page, ph.Lock)
			for j := range locked {
				locked[j] = mem.Page(ph.Base + j)
			}
			tr.AddLock(ph.PJ, i, locked)
		}
		for r := 0; r < ph.Refs; r++ {
			tr.AddRef(mem.Page(ph.Base + r%ph.W))
		}
		if locked != nil {
			tr.AddUnlock(locked)
		}
	}
	tr.Finish()
	return tr
}

// cdt3 encodes src at the given chunk size.
func cdt3(t testing.TB, src trace.Source, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.WriteCDT3(&buf, src, chunk); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walkEvents flattens src's stream, walked with the given block cap, into
// events, failing on an empty block or one longer than the cap.
func walkEvents(t testing.TB, src trace.Source, maxBlock int) []trace.Event {
	t.Helper()
	var out []trace.Event
	err := trace.Walk(src, trace.CursorOpts{MaxBlock: maxBlock}, func(b trace.Block) bool {
		if len(b.Pages) == 0 && !b.HasDir {
			t.Fatalf("MaxBlock %d: empty block", maxBlock)
		}
		if maxBlock > 0 && len(b.Pages) > maxBlock {
			t.Fatalf("MaxBlock %d: block of %d references", maxBlock, len(b.Pages))
		}
		for _, pg := range b.Pages {
			out = append(out, trace.Event{Kind: trace.EvRef, Arg: int32(pg)})
		}
		if b.HasDir {
			out = append(out, b.Dir)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkSynthSource is the differential check of one spec's lazy source
// against the per-reference oracle: Meta, side tables and CDT3 bytes
// (at the default chunk size and a small one that cuts blocks), the
// event sequence under several block caps, and Materialize's copy.
func checkSynthSource(t testing.TB, spec SynthSpec) {
	t.Helper()
	oracle := materializeOracle(&spec)
	if got, want := spec.Meta(), oracle.Meta(); got != want {
		t.Fatalf("%s: Meta %+v, oracle %+v", spec.Name, got, want)
	}
	if got, want := spec.Tables(), oracle.Tables(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Tables %+v, oracle %+v", spec.Name, got, want)
	}
	for _, chunk := range []int{0, 97} {
		if !bytes.Equal(cdt3(t, &spec, chunk), cdt3(t, oracle, chunk)) {
			t.Fatalf("%s: CDT3 bytes (chunk %d) differ from the oracle's", spec.Name, chunk)
		}
	}
	want := walkEvents(t, oracle, 0)
	for _, maxBlock := range []int{0, 1, 7, 512} {
		if got := walkEvents(t, &spec, maxBlock); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MaxBlock %d walk differs from the oracle's stream", spec.Name, maxBlock)
		}
	}
	if !bytes.Equal(cdt3(t, spec.Materialize(), 0), cdt3(t, oracle, 0)) {
		t.Fatalf("%s: Materialize differs from the oracle", spec.Name)
	}
}

// TestSynthSourceMatchesOracle runs the differential check over 540
// specs: six seeds, thirty ids and three scales, the smallest of which
// hits the 32-reference floor.
func TestSynthSourceMatchesOracle(t *testing.T) {
	n := 0
	for _, seed := range []uint64{1, 2, 3, 7, 42, 1 << 40} {
		for id := 0; id < 30; id++ {
			for _, scale := range []float64{1, 0.25, 0.01} {
				checkSynthSource(t, NewSynthSpec(seed, id*37, scale))
				n++
			}
		}
	}
	if n < 500 {
		t.Fatalf("checked %d specs, want >= 500", n)
	}
}

// TestSynthSourceManyChunks: a spec long enough that Materialize builds
// its trace in several chunks still matches the oracle, so Materialize
// returns it finished.
func TestSynthSourceManyChunks(t *testing.T) {
	spec := NewSynthSpec(1, 5, 60)
	if spec.Refs < 100_000 {
		t.Fatalf("spec has %d references, want a multi-chunk trace", spec.Refs)
	}
	checkSynthSource(t, spec)
}

// TestSynthSourceOddWindows covers windows outside the shared table's
// ranges (private rows, one longer than a row) and phases shorter than
// their window, which touch only part of it.
func TestSynthSourceOddWindows(t *testing.T) {
	spec := SynthSpec{ID: 1, Name: "odd", Phases: []phase{
		{Base: 100, W: 40, Refs: 1000, Lock: 2, PJ: 1},
		{Base: 0, W: 600, Refs: 1500},
		{Base: 5, W: 20, Refs: 7, Lock: 3, PJ: 2},
		{Base: 30, W: 2, Refs: 9},
	}}
	for _, ph := range spec.Phases {
		spec.Refs += ph.Refs
	}
	checkSynthSource(t, spec)
}

// FuzzSynthSource runs the differential check on fuzz-chosen specs.
func FuzzSynthSource(f *testing.F) {
	f.Add(uint64(1), uint32(0), 1.0)
	f.Add(uint64(2), uint32(17), 0.25)
	f.Add(uint64(3), uint32(4242), 0.01)
	f.Add(uint64(99), uint32(1), 3.5)
	f.Fuzz(func(t *testing.T, seed uint64, id uint32, scale float64) {
		if !(scale >= -1 && scale <= 4) {
			t.Skip("scale outside [-1, 4]")
		}
		checkSynthSource(t, NewSynthSpec(seed, int(id), scale))
	})
}

// TestRetableMatchesPerturb: the kernel perturbs a tenant through the
// table-level form on its spec's tables; that must equal the side tables
// of the trace-level Perturb of the oracle trace, draw for draw.
func TestRetableMatchesPerturb(t *testing.T) {
	for _, name := range corruptInjectors {
		f, err := chaos.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.Retable == nil {
			t.Fatalf("%s has no table-level form", name)
		}
		for seed := uint64(0); seed < 60; seed++ {
			spec := NewSynthSpec(seed, int(seed)*13, 0.25)
			in := []float64{0.4, 0.8, 1}[seed%3]
			got := f.Retable(spec.Tables(), spec.Meta(), chaos.NewRand(seed), in)
			want := f.Perturb(materializeOracle(&spec), chaos.NewRand(seed), in).Tables()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: Retable %+v, Perturb %+v", name, seed, got, want)
			}
		}
	}
}

// TestKernelAllocIndependentOfScale: tenants are generated on demand, so
// quadrupling every tenant's reference count must leave a full-chaos
// run's allocation volume nearly unchanged (a materializing kernel
// allocates ~4x). The measure is bytes allocated, not time.
func TestKernelAllocIndependentOfScale(t *testing.T) {
	cfg := Config{Tenants: 512, Seed: 1, Checked: true,
		Chaos: Chaos{Kill: true, Oscillate: true, Corrupt: true, Intensity: 0.4}}
	alloc := func(scale float64) uint64 {
		c := cfg
		c.Scale = scale
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := mustRun(t, c, engine.New(1))
		runtime.ReadMemStats(&after)
		if len(res.Violations) != 0 {
			t.Fatalf("scale %v: violations: %v", scale, res.Violations)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(1) // warm the shared cyclic rows
	one, four := alloc(1), alloc(4)
	t.Logf("allocated %d bytes at scale 1, %d at scale 4", one, four)
	if float64(four) >= 1.25*float64(one) {
		t.Fatalf("scale 4 allocated %d bytes, >= 1.25x scale 1's %d", four, one)
	}
}

// TestConfigValidation: Run rejects every out-of-range field with an
// error naming the field and its value; zero still means the default.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		edit func(*Config)
		want string // "" = valid
	}{
		{func(c *Config) {}, ""},
		{func(c *Config) { c.Tenants = 0 }, "Tenants must be in [1, 1000000] (got 0)"},
		{func(c *Config) { c.Tenants = MaxTenants + 1 }, "Tenants must be in [1, 1000000] (got 1000001)"},
		{func(c *Config) { c.Pool = "bogus" }, `Pool must be cd, lru or ws (got "bogus")`},
		{func(c *Config) { c.Frames = -5 }, "Frames must not be negative (got -5)"},
		{func(c *Config) { c.Shards = -3 }, "Shards must be in [0, 4096] (got -3)"},
		{func(c *Config) { c.Shards = maxShards + 1 }, "Shards must be in [0, 4096] (got 4097)"},
		{func(c *Config) { c.Shards = maxShards }, ""},
		{func(c *Config) { c.Level = -2 }, "Level must not be negative (got -2)"},
		{func(c *Config) { c.Quantum = -5 }, "Quantum must not be negative (got -5)"},
		{func(c *Config) { c.Overcommit = -1 }, "Overcommit must be a positive finite number (got -1)"},
		{func(c *Config) { c.Overcommit = math.Inf(1) }, "Overcommit must be a positive finite number (got +Inf)"},
		{func(c *Config) { c.Scale = math.NaN() }, "Scale must be a positive finite number (got NaN)"},
		{func(c *Config) { c.Chaos.Intensity = 7 }, "Chaos.Intensity must be in [0, 1] (got 7)"},
		{func(c *Config) { c.Chaos.Intensity = -0.1 }, "Chaos.Intensity must be in [0, 1] (got -0.1)"},
		{func(c *Config) { c.Chaos = Chaos{Kill: true, Intensity: 1} }, ""},
		{func(c *Config) { c.Jobs = specJobs(2) }, "Tenants must be 0 with Jobs (got 4)"},
		{func(c *Config) { c.Tenants, c.Jobs = 0, specJobs(2) }, "Frames must be positive with Jobs (got 0)"},
		{func(c *Config) { c.Tenants, c.Jobs, c.Frames = 0, specJobs(2), -3 }, "Frames must be positive with Jobs (got -3)"},
		{func(c *Config) { c.Tenants, c.Jobs, c.Frames = 0, specJobs(2), 16 }, ""},
		{func(c *Config) {
			c.Tenants, c.Jobs, c.Frames = 0, specJobs(2), 16
			c.Jobs[1].Source = nil
		}, "Jobs[1].Source must not be nil (got nil)"},
		{func(c *Config) {
			c.Tenants, c.Jobs, c.Frames = 0, specJobs(2), 16
			c.Jobs[0].Policy = policy.NewPFF(100)
		}, ""},
		{func(c *Config) {
			c.Tenants, c.Jobs, c.Frames = 0, specJobs(2), 16
			c.Jobs[1].Policy = nil
		}, "Jobs[1].Policy must not be nil (got nil)"},
	}
	for i, tc := range cases {
		cfg := testConfig(4)
		tc.edit(&cfg)
		_, err := Run(cfg, engine.New(1))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("case %d: valid config rejected: %v", i, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("case %d: got error %v, want one containing %q", i, err, tc.want)
		}
	}
}

// TestSynthCursorAllocs: blocks are views of the shared cyclic rows, so
// a whole walk allocates only the cursor, whatever the stream's length.
func TestSynthCursorAllocs(t *testing.T) {
	spec := NewSynthSpec(1, 3, 4)
	_ = walkEvents(t, &spec, 0) // build the shared rows
	allocs := testing.AllocsPerRun(20, func() {
		cur := spec.Blocks(trace.CursorOpts{})
		var b trace.Block
		for cur.Next(&b) {
		}
	})
	if allocs > 1 {
		t.Fatalf("a walk of %d references allocated %v times, want <= 1 (the cursor)", spec.Refs, allocs)
	}
}
