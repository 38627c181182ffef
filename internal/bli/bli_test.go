package bli

import (
	"testing"

	"cdmm/internal/mem"
	"cdmm/internal/workloads"
)

// phaseTrace builds a trace with two phases: pages {0,1} cycled for n1
// refs, then pages {10..13} cycled for n2 refs.
func phaseTrace(n1, n2 int) []mem.Page {
	var out []mem.Page
	for i := 0; i < n1; i++ {
		out = append(out, mem.Page(i%2))
	}
	for i := 0; i < n2; i++ {
		out = append(out, mem.Page(10+i%4))
	}
	return out
}

func TestDetectTwoPhases(t *testing.T) {
	refs := phaseTrace(400, 400)
	ivs := Detect(refs, Config{})
	// A size-2 interval must cover (nearly) the whole first phase and a
	// size-4 interval the second.
	var got2, got4 bool
	for _, iv := range ivs {
		if iv.Size == 2 && iv.Start <= 2 && iv.End >= 398 {
			got2 = true
		}
		if iv.Size == 4 && iv.Start >= 400 && iv.End == 800 && iv.Duration() >= 390 {
			got4 = true
		}
	}
	if !got2 {
		t.Errorf("missing the size-2 phase interval; got %d intervals", len(ivs))
	}
	if !got4 {
		t.Errorf("missing the size-4 phase interval")
	}
}

func TestHierarchicalNesting(t *testing.T) {
	// Inner locality {0,1} re-visited repeatedly; page 5 touched between
	// visits forms an outer level-3 locality {0,1,5}.
	var refs []mem.Page
	for outer := 0; outer < 20; outer++ {
		for i := 0; i < 100; i++ {
			refs = append(refs, mem.Page(i%2))
		}
		refs = append(refs, 5)
	}
	ivs := Detect(refs, Config{})
	stats := Stats(ivs)
	var cover2, cover3 int
	for _, s := range stats {
		switch s.Size {
		case 2:
			cover2 = s.Coverage
		case 3:
			cover3 = s.Coverage
		}
	}
	if cover2 < len(refs)/2 {
		t.Errorf("size-2 coverage %d too small (inner locality)", cover2)
	}
	if cover3 < len(refs)*9/10 {
		t.Errorf("size-3 coverage %d too small (outer locality)", cover3)
	}
}

func TestMinDurationFilters(t *testing.T) {
	refs := phaseTrace(40, 40)
	strict := Detect(refs, Config{MinDuration: func(s int) int { return 1000 }})
	if len(strict) != 0 {
		t.Errorf("intervals survived an impossible duration floor: %d", len(strict))
	}
}

func TestIntervalInvariants(t *testing.T) {
	refs := phaseTrace(300, 500)
	ivs := Detect(refs, Config{})
	for _, iv := range ivs {
		if iv.Start < 0 || iv.End > len(refs) || iv.Start >= iv.End {
			t.Fatalf("malformed interval %+v", iv)
		}
		if iv.Size < 1 {
			t.Fatalf("interval with size %d", iv.Size)
		}
		if iv.Duration() < 8*iv.Size {
			t.Fatalf("interval below the default duration floor: %+v", iv)
		}
	}
}

func TestMaxSizeCap(t *testing.T) {
	refs := phaseTrace(200, 200)
	ivs := Detect(refs, Config{MaxSize: 2})
	for _, iv := range ivs {
		if iv.Size > 2 {
			t.Fatalf("interval above MaxSize: %+v", iv)
		}
	}
}

func TestDominantSizes(t *testing.T) {
	refs := phaseTrace(1000, 0)
	sizes := DominantSizes(Detect(refs, Config{}), len(refs), 0.9)
	found := false
	for _, s := range sizes {
		if s == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("size 2 should dominate a pure two-page cycle; got %v", sizes)
	}
}

// TestCompileTimePredictionsMatchRuntime is the validation experiment the
// BLI model enables: the compile-time locality sizes the directive
// machinery computes (the ALLOCATE X values) should appear among the
// dominant runtime locality sizes of the actual trace, give or take the
// MinResident floor. This ties §2's source-level analysis to Madison &
// Batson's trace-level model — the paper's core premise.
func TestCompileTimePredictionsMatchRuntime(t *testing.T) {
	for _, name := range []string{"MAIN", "HWSCRT"} {
		c, err := workloads.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.Trace()
		if err != nil {
			t.Fatal(err)
		}
		refs := tr.Pages()
		ivs := Detect(refs, Config{MaxSize: c.V() + 4})
		dominant := DominantSizes(ivs, len(refs), 0.5)
		if len(dominant) == 0 {
			t.Fatalf("%s: no dominant runtime localities", name)
		}

		// Collect the compile-time X of the loops where the program spends
		// its references (every loop with a directive).
		predicted := map[int]bool{}
		for _, l := range c.Info.Loops {
			predicted[c.Analysis.ActiveSize(l)] = true
		}
		// At least one predicted size must be within ±2 pages of a
		// dominant runtime size.
		matched := false
		for _, d := range dominant {
			for x := range predicted {
				if d >= x-2 && d <= x+2 {
					matched = true
				}
			}
		}
		if !matched {
			t.Errorf("%s: no compile-time locality size (%v) near any dominant runtime size (%v)",
				name, keys(predicted), dominant)
		}
	}
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestRender(t *testing.T) {
	refs := phaseTrace(200, 200)
	out := Render(Detect(refs, Config{}), len(refs))
	if out == "" || len(out) < 40 {
		t.Errorf("rendering too small:\n%s", out)
	}
}
