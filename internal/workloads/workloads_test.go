package workloads

import (
	"bytes"
	"strings"
	"testing"

	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

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
			c, err := Compile(p)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if c.Trace.Refs < 10_000 {
				t.Errorf("trace too short: R = %d", c.Trace.Refs)
			}
			if c.Trace.Refs > 5_000_000 {
				t.Errorf("trace too long: R = %d", c.Trace.Refs)
			}
			if c.V() < 20 {
				t.Errorf("virtual size too small: V = %d pages", c.V())
			}
			if c.Trace.Distinct > c.V() {
				t.Errorf("distinct pages %d exceed virtual size %d", c.Trace.Distinct, c.V())
			}
			// Directives must be present in every trace.
			var allocs int
			_ = c.Trace.WalkBlocks(trace.CursorOpts{}, func(b trace.Block) bool {
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
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if v := c.V(); v < want.lo || v > want.hi {
			t.Errorf("%s: V = %d pages, want within [%d, %d]", name, v, want.lo, want.hi)
		}
	}
}

func TestCompileCached(t *testing.T) {
	p, _ := Get("MAIN")
	c1 := MustCompile(p)
	c2 := MustCompile(p)
	if c1 != c2 {
		t.Error("Compile should cache and return the same instance")
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
		c := MustCompile(p)
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
	p, _ := Get("MAIN")
	c := MustCompile(p)
	type point struct {
		mem float64
		pf  int
	}
	run := func(level int) point {
		cd := policy.NewCD(policy.SelectLevel(level), 2)
		r := vmsim.Run(c.Trace, cd)
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
// the cache) and compares the two traces' CDT3 encodings byte for byte.
func TestTracesDeterministic(t *testing.T) {
	p, _ := Get("HWSCRT")
	c := MustCompile(p)
	clone := &Program{Name: "HWSCRT-CLONE", Source: p.Source, Sets: p.Sets}
	c2, err := Compile(clone)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := trace.WriteCDT3(&a, c.Trace, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteCDT3(&b, c2.Trace, 0); err != nil {
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
