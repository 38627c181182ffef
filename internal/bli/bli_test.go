package bli

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cdmm/internal/mem"
	"cdmm/internal/workloads"
)

// detectMap is the oracle: Detect as it was written first, with each
// page's stack depth kept in a map that the shift rewrites entry by
// entry.
func detectMap(refs []mem.Page) []Interval {
	var out []Interval
	var stack []mem.Page
	pos := map[mem.Page]int{}
	var lastChange []int
	emit := func(size, start, end int) {
		if end-start >= minDuration(size) {
			out = append(out, Interval{Size: size, Start: start, End: end})
		}
	}
	for t, pg := range refs {
		d, seen := pos[pg]
		if !seen {
			d = len(stack)
			stack = append(stack, pg)
			lastChange = append(lastChange, 0)
		}
		for i := d; i > 0; i-- {
			stack[i] = stack[i-1]
			pos[stack[i]] = i
		}
		stack[0] = pg
		pos[pg] = 0
		limit := d
		if !seen {
			limit = len(stack)
		}
		for s := 1; s <= limit; s++ {
			emit(s, lastChange[s-1], t)
			lastChange[s-1] = t
		}
	}
	for s := 1; s <= len(stack); s++ {
		emit(s, lastChange[s-1], len(refs))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Size < out[j].Size
	})
	return out
}

// TestDetectMatchesMapOracle: Detect finds exactly the oracle's
// intervals on the nine workload traces and on seeded random strings
// that mix a sliding locality with jumps, first touches and repeats.
func TestDetectMatchesMapOracle(t *testing.T) {
	for _, name := range workloads.Names() {
		c, err := workloads.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.Trace()
		if err != nil {
			t.Fatal(err)
		}
		refs := tr.Pages()
		if got, want := Detect(refs), detectMap(refs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d intervals, oracle %d", name, len(got), len(want))
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		refs := make([]mem.Page, 500+r.Intn(3000))
		base, span := 0, 1+r.Intn(40)
		for i := range refs {
			if r.Intn(50) == 0 {
				base = r.Intn(200)
			}
			refs[i] = mem.Page(base + r.Intn(span))
		}
		if got, want := Detect(refs), detectMap(refs); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: %d intervals, oracle %d", seed, len(got), len(want))
		}
	}
}

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
	ivs := Detect(refs)
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
	ivs := Detect(refs)
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

// TestMinDurationFilters pins the 8×size rule at its boundary: page 0
// for n0 references, then page 1 for n1. A size-1 interval needs 8
// references and a size-2 interval 16.
func TestMinDurationFilters(t *testing.T) {
	for _, c := range []struct {
		n0, n1 int
		want   []Interval
	}{
		{7, 16, []Interval{{1, 7, 23}, {2, 7, 23}}},
		{8, 16, []Interval{{1, 0, 8}, {1, 8, 24}, {2, 8, 24}}},
		{8, 15, []Interval{{1, 0, 8}, {1, 8, 23}}},
	} {
		var refs []mem.Page
		for i := 0; i < c.n0+c.n1; i++ {
			refs = append(refs, mem.Page(min(i/c.n0, 1)))
		}
		if got := Detect(refs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%d refs to page 0, %d to page 1: intervals %v, want %v", c.n0, c.n1, got, c.want)
		}
	}
}

func TestIntervalInvariants(t *testing.T) {
	refs := phaseTrace(300, 500)
	ivs := Detect(refs)
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

func TestDominantSizes(t *testing.T) {
	refs := phaseTrace(1000, 0)
	sizes := DominantSizes(Detect(refs), len(refs), 0.9)
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
		ivs := Detect(refs)
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
	out := Render(Detect(refs), len(refs))
	if out == "" || len(out) < 40 {
		t.Errorf("rendering too small:\n%s", out)
	}
}
