package workloads

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"cdmm/internal/core"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// compiled compiles the named program through the shared cache and
// returns it with its trace.
func compiled(t *testing.T, name string) (*core.Program, *trace.Trace) {
	t.Helper()
	c, err := Compile(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return c, tr
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"APPROX", "CONDUCT", "FDJAC", "FIELD", "HWSCRT", "HYBRJ", "INIT", "MAIN", "TQL"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("programs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("program %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("NOPE"); err == nil {
		t.Error("expected error for unknown program")
	}
}

func TestAllProgramsCompile(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			c, tr := compiled(t, p.Name)
			if tr.Refs < 10_000 {
				t.Errorf("trace too short: R = %d", tr.Refs)
			}
			if tr.Refs > 5_000_000 {
				t.Errorf("trace too long: R = %d", tr.Refs)
			}
			if c.V() < 20 {
				t.Errorf("virtual size too small: V = %d pages", c.V())
			}
			if tr.Distinct > c.V() {
				t.Errorf("distinct pages %d exceed virtual size %d", tr.Distinct, c.V())
			}
			// Directives must be present in every trace.
			var allocs int
			_ = tr.WalkBlocks(trace.CursorOpts{}, func(b trace.Block) bool {
				if b.HasDir && b.Dir.Kind == trace.EvAlloc {
					allocs++
				}
				return true
			})
			if allocs == 0 {
				t.Error("no ALLOCATE events in trace")
			}
		})
	}
}

func TestPaperVirtualSizes(t *testing.T) {
	// The paper states CONDUCT has 270 pages and HWSCRT 69 pages in their
	// virtual spaces; the reconstructions are sized to match closely.
	cases := map[string]struct{ lo, hi int }{
		"CONDUCT": {260, 275},
		"HWSCRT":  {69, 69},
	}
	for name, want := range cases {
		c, err := Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		if v := c.V(); v < want.lo || v > want.hi {
			t.Errorf("%s: V = %d pages, want within [%d, %d]", name, v, want.lo, want.hi)
		}
	}
}

// TestCompileCached has 8 concurrent callers compile MAIN: every one must
// get the same *core.Program, so the pipeline ran once.
func TestCompileCached(t *testing.T) {
	out := make([]*core.Program, 8)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Compile("MAIN")
			if err != nil {
				t.Error(err)
			}
			out[i] = c
		}(i)
	}
	wg.Wait()
	for i, c := range out {
		if c == nil || c != out[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p: want one shared compilation", i, c, out[0])
		}
	}
}

// TestCompileIgnoresNamesakes checks that a program outside the registry
// that borrows a registered name cannot change what Compile returns for
// that name: the cache is keyed by the registered program.
func TestCompileIgnoresNamesakes(t *testing.T) {
	const outsider = `
PROGRAM MAIN
DIMENSION A(64)
DO 10 I = 1, 64
  A(I) = 1.0
10 CONTINUE
END
`
	o, err := core.CompileSource("MAIN", outsider)
	if err != nil {
		t.Fatal(err)
	}
	otr, err := o.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if otr.Refs != 64 || o.V() != 1 {
		t.Fatalf("outsider: R=%d V=%d, want R=64 V=1", otr.Refs, o.V())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering a second MAIN did not panic")
			}
		}()
		register(&Program{Name: "MAIN", Source: outsider})
	}()
	c, tr := compiled(t, "MAIN")
	if tr.Refs == 64 || c.V() == 1 {
		t.Fatalf("Compile(MAIN) = R=%d V=%d: the outsider leaked into the cache", tr.Refs, c.V())
	}
}

func TestSetsResolve(t *testing.T) {
	for _, p := range All() {
		if len(p.Sets) == 0 {
			t.Errorf("%s has no directive sets", p.Name)
			continue
		}
		if p.DefaultSet().Name != p.Sets[0].Name {
			t.Errorf("%s: default set mismatch", p.Name)
		}
		for _, s := range p.Sets {
			got, ok := p.Set(s.Name)
			if !ok || got.Name != s.Name {
				t.Errorf("%s: set %q not resolvable", p.Name, s.Name)
			}
			if s.Level < 1 {
				t.Errorf("%s/%s: level %d < 1", p.Name, s.Name, s.Level)
			}
			if s.Selector() == nil {
				t.Errorf("%s/%s: nil selector", p.Name, s.Name)
			}
		}
		if _, ok := p.Set("NO-SUCH-SET"); ok {
			t.Errorf("%s: bogus set resolved", p.Name)
		}
	}
}

// TestOverrideKeysExist ensures every override key in every set names a
// loop that actually exists in the program (guards against typos when the
// sources evolve).
func TestOverrideKeysExist(t *testing.T) {
	for _, p := range All() {
		c, err := Compile(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for _, l := range c.Info.Loops {
			keys[l.Key()] = true
		}
		for _, s := range p.Sets {
			for k := range s.Overrides {
				if !keys[k] {
					t.Errorf("%s/%s: override key %q names no loop", p.Name, s.Name, k)
				}
			}
		}
	}
}

// TestDirectiveSetOrdering verifies the Table 1 property on MAIN: higher
// strata allocate more memory and fault less.
func TestDirectiveSetOrdering(t *testing.T) {
	_, tr := compiled(t, "MAIN")
	type point struct {
		mem float64
		pf  int
	}
	run := func(level int) point {
		cd := policy.NewCD(policy.SelectLevel(level), 2)
		r := vmsim.Run(tr, cd)
		return point{r.MEM(), r.Faults}
	}
	p1, p2, p4, p5 := run(1), run(2), run(4), run(5)
	if !(p1.mem <= p2.mem && p2.mem <= p4.mem && p4.mem <= p5.mem) {
		t.Errorf("MEM not monotone in level: %v %v %v %v", p1.mem, p2.mem, p4.mem, p5.mem)
	}
	if !(p1.pf >= p2.pf && p2.pf >= p4.pf && p4.pf >= p5.pf) {
		t.Errorf("PF not anti-monotone in level: %v %v %v %v", p1.pf, p2.pf, p4.pf, p5.pf)
	}
}

// TestTracesDeterministic recompiles one program from scratch (bypassing
// the cache through core) and compares the two traces' CDT3 encodings
// byte for byte.
func TestTracesDeterministic(t *testing.T) {
	p, _ := Get("HWSCRT")
	_, tr := compiled(t, p.Name)
	c2, err := core.CompileSource(p.Name, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := c2.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := trace.WriteCDT3(&a, tr, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteCDT3(&b, tr2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("traces differ: %d vs %d CDT3 bytes", a.Len(), b.Len())
	}
}

func TestDescriptionsPresent(t *testing.T) {
	for _, p := range All() {
		if strings.TrimSpace(p.Description) == "" {
			t.Errorf("%s: empty description", p.Name)
		}
	}
}
