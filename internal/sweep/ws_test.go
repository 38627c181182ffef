package sweep_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

var wsTaus = []int{1, 2, 3, 5, 10, 25, 80, 300, 2500}

func TestWSHistogramsMatchBrute(t *testing.T) {
	tr := randomTrace(5, 3000, 40)
	s := mustWS(t, tr)
	for _, tau := range wsTaus {
		b := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
		if got := s.Faults(tau); got != b.Faults {
			t.Errorf("tau=%d: faults %d != brute %d", tau, got, b.Faults)
		}
		if got := s.MemSum(tau); got != b.MemSum {
			t.Errorf("tau=%d: MemSum %v != brute %v", tau, got, b.MemSum)
		}
		if got := s.MEM(tau); math.Abs(got-b.MEM()) > 1e-9 {
			t.Errorf("tau=%d: MEM %v != brute %v", tau, got, b.MEM())
		}
	}
}

// TestWSCurveMatchesBrute checks the event-driven grid engine produces
// the complete per-τ Result — including the fault-coupled space-time
// integral and the working-set peak — identically to one replay per τ.
func TestWSCurveMatchesBrute(t *testing.T) {
	tr := randomTrace(9, 3000, 40)
	s := mustWS(t, tr)
	got, err := s.Curve(wsTaus)
	if err != nil {
		t.Fatal(err)
	}
	for i, tau := range wsTaus {
		b := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
		if got[i] != b {
			t.Errorf("tau=%d:\n curve %+v\n brute %+v", tau, got[i], b)
		}
	}
}

func TestWSCurvePropertyRandom(t *testing.T) {
	f := func(seed uint16, rawTau uint8) bool {
		tr := randomTrace(uint64(seed)+1, 500, 20)
		s, err := sweep.NewWS(tr)
		if err != nil {
			return false
		}
		taus := []int{1, int(rawTau)/4 + 1, int(rawTau) + 1, 3 * int(rawTau), 600}
		got, err := s.Curve(taus)
		if err != nil {
			return false
		}
		for i, tau := range taus {
			if tau < 1 {
				tau = 1
			}
			if got[i] != vmsim.Run(tr.RefsOnly(), policy.NewWS(tau)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestWSCurveDegenerate covers the grid-engine corners: τ covering the
// whole trace (nothing ever expires), τ = 1 (everything expires next
// step), duplicate and unsorted grids, single-page traces.
func TestWSCurveDegenerate(t *testing.T) {
	tr := randomTrace(13, 200, 6)
	s := mustWS(t, tr)
	grids := [][]int{
		{1},
		{200, 1, 200, 7, 1},
		{100000},
		{1, 2, 3, 4, 5, 6, 7, 8},
	}
	for _, taus := range grids {
		got, err := s.Curve(taus)
		if err != nil {
			t.Fatal(err)
		}
		for i, tau := range taus {
			b := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
			if got[i] != b {
				t.Fatalf("grid %v tau=%d: %+v != %+v", taus, tau, got[i], b)
			}
		}
	}

	one := randomTrace(1, 50, 1)
	so := mustWS(t, one)
	for _, tau := range []int{1, 3, 50} {
		got, err := so.Run(tau)
		if err != nil {
			t.Fatal(err)
		}
		if b := vmsim.Run(one.RefsOnly(), policy.NewWS(tau)); got != b {
			t.Fatalf("single-page tau=%d: %+v != %+v", tau, got, b)
		}
	}
}

func TestWSRunCaches(t *testing.T) {
	tr := randomTrace(21, 800, 15)
	s := mustWS(t, tr)
	a, err := s.Run(37)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(37)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cache returned a different result: %+v vs %+v", a, b)
	}
}

func TestWSTauForMEM(t *testing.T) {
	tr := randomTrace(17, 2500, 30)
	s := mustWS(t, tr)
	for _, target := range []float64{1.0, 2.5, 4.0, 8.0, s.MEM(40)} {
		tau := s.TauForMEM(target)
		got := s.MEM(tau)
		// No neighbouring τ may be meaningfully closer to the target.
		for _, other := range []int{tau - 1, tau + 1} {
			if other < 1 {
				continue
			}
			if math.Abs(s.MEM(other)-target) < math.Abs(got-target)-1e-12 {
				t.Errorf("target %v: τ=%d closer than chosen τ=%d", target, other, tau)
			}
		}
	}
}

func TestWSMinTauForFaults(t *testing.T) {
	tr := randomTrace(23, 2500, 30)
	s := mustWS(t, tr)
	target := s.Faults(100)
	tau, ok := s.MinTauForFaults(target)
	if !ok {
		t.Fatal("achievable target reported unachievable")
	}
	if s.Faults(tau) > target {
		t.Errorf("tau=%d faults %d exceed target %d", tau, s.Faults(tau), target)
	}
	if tau > 1 && s.Faults(tau-1) <= target {
		t.Errorf("tau=%d is not minimal", tau)
	}
}

// TestWSMinSTMatchesLadderScan pins MinST to the reference definition: a
// strict-< scan of full replays over the default τ ladder, in ladder
// order.
func TestWSMinSTMatchesLadderScan(t *testing.T) {
	tr := randomTrace(29, 2000, 25)
	s := mustWS(t, tr)
	tau, res, err := s.MinST()
	if err != nil {
		t.Fatal(err)
	}
	bestTau, best := 0, vmsim.Result{SpaceTime: math.Inf(1)}
	for _, tt := range vmsim.DefaultTaus(tr.Refs) {
		r := vmsim.Run(tr.RefsOnly(), policy.NewWS(tt))
		if r.SpaceTime < best.SpaceTime {
			bestTau, best = tt, r
		}
	}
	if tau != bestTau || res != best {
		t.Fatalf("MinST (%d, %+v) != ladder scan (%d, %+v)", tau, res, bestTau, best)
	}
}

// TestWSClosedFormTailEveryWindow checks one Curve over every window τ in
// 1..R+2 against one replay per τ on seeded random short traces. The
// windows at or above the tail threshold T come from the closed form, the
// others from the grid pass, so both halves and their boundary are
// covered.
func TestWSClosedFormTailEveryWindow(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		tr := randomTrace(seed, 1+int(seed*37%240), 1+int(seed%13))
		s := mustWS(t, tr)
		if tail := s.Tail(); tail < 1 || tail > tr.Refs {
			t.Fatalf("seed %d: tail threshold %d outside [1, R=%d]", seed, tail, tr.Refs)
		}
		taus := make([]int, tr.Refs+2)
		for i := range taus {
			taus[i] = i + 1
		}
		got, err := s.Curve(taus)
		if err != nil {
			t.Fatal(err)
		}
		for i, tau := range taus {
			if b := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau)); got[i] != b {
				t.Fatalf("seed %d R=%d T=%d tau=%d:\n curve %+v\n brute %+v", seed, tr.Refs, s.Tail(), tau, got[i], b)
			}
		}
	}
}

// TestWSRingSizedBelowTail checks that a ladder over a repeated stream
// sizes its position ring by the largest window below the tail
// threshold, not by the largest window requested: the ring is the
// smallest power of two holding that window plus one block of the grid
// pass. On a repeated stream the threshold is at most one copy's
// length, so the ring stays near one copy however many copies follow.
func TestWSRingSizedBelowTail(t *testing.T) {
	p, err := workloads.Compile("FDJAC")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	s := mustWS(t, trace.Repeat(tr, 8))
	if s.Tail() > tr.Refs {
		t.Fatalf("tail threshold %d exceeds one copy (%d references)", s.Tail(), tr.Refs)
	}
	taus := vmsim.DefaultTaus(s.Refs)
	below := 0
	for _, tau := range taus {
		if tau < s.Tail() {
			below = max(below, tau)
		}
	}
	want := 1
	for want < min(below+sweep.WSBlock, s.Refs+1) {
		want *= 2
	}
	passes, stop := sweep.RecordPasses()
	defer stop()
	if _, err := s.Curve(taus); err != nil {
		t.Fatal(err)
	}
	ps := passes()
	if len(ps) != 1 {
		t.Fatalf("ladder made %d grid traversals, want 1", len(ps))
	}
	if ps[0].Ring != want {
		t.Errorf("ring has %d slots, want %d (largest window below T=%d, plus a %d-step block, to a power of two); R=%d, largest window %d",
			ps[0].Ring, want, s.Tail(), sweep.WSBlock, s.Refs, taus[len(taus)-1])
	}
}

// TestWSStoreConcurrent asks one WS for the same windows from several
// goroutines at once: one grid traversal computes them, and every caller
// reads the same exact results from the store.
func TestWSStoreConcurrent(t *testing.T) {
	tr := randomTrace(31, 3000, 40)
	s := mustWS(t, tr)
	taus := []int{1, 7, 40, 300, s.Tail(), 5000}
	passes, stop := sweep.RecordPasses()
	defer stop()
	var wg sync.WaitGroup
	got := make([][]vmsim.Result, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := s.Curve(taus)
			if err != nil {
				t.Error(err)
			}
			got[g] = rs
		}()
	}
	wg.Wait()
	if n := len(passes()); n != 1 {
		t.Errorf("%d concurrent requests for the same windows made %d grid traversals, want 1", len(got), n)
	}
	for i, tau := range taus {
		b := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
		for g := range got {
			if len(got[g]) != len(taus) || got[g][i] != b {
				t.Fatalf("caller %d tau=%d: store result differs from brute %+v", g, tau, b)
			}
		}
	}
}

// churnTrace mixes a few hot pages with a quarter of references to a
// large cold set drawn at random, so that windows of several blocks
// still see many faults, expiries and re-references.
func churnTrace(seed uint64, n, hot, cold int) *trace.Trace {
	rng := func() int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed >> 33)
	}
	tr := trace.New("churn")
	for i := 0; i < n; i++ {
		if rng()%4 == 0 {
			tr.AddRef(mem.Page(hot + rng()%cold))
		} else {
			tr.AddRef(mem.Page(rng() % hot))
		}
	}
	tr.Finish()
	return tr
}

// TestWSCurveAcrossBlocks is the per-cell differential across the grid
// pass's time blocks: seeded traces several blocks long, under windows
// below, at and above the block length and next to the tail threshold
// T, walked from a smallest window of one step and of more than a block.
// Single windows of three blocks and more size the position ring to
// 4×WSBlock or just past it: at 3×WSBlock the ring has no slot to
// spare, and the pass must still read every pending reference's slot
// before the scan reuses it.
func TestWSCurveAcrossBlocks(t *testing.T) {
	b := sweep.WSBlock
	for seed := uint64(1); seed <= 3; seed++ {
		tr := churnTrace(seed, 8*b+int(seed)*977, 8+int(seed), 3000+int(seed)*200)
		tail := mustWS(t, tr).Tail()
		if tail <= 4*b {
			t.Fatalf("seed %d: tail threshold %d leaves no window of four blocks to walk", seed, tail)
		}
		grids := [][]int{
			{1, 2, 5, 64, b / 2, b - 1, b, b + 1, 2*b + 1, 3*b + 1, tail - 2, tail - 1, tail, tail + 1},
			{b + 1, 2*b + 1, tail - 1},
		}
		for _, j := range []int{0, 1, 64, b / 2, b - 1} {
			grids = append(grids, []int{3*b + j})
		}
		for _, taus := range grids {
			got, err := mustWS(t, tr).Curve(taus)
			if err != nil {
				t.Fatal(err)
			}
			for i, tau := range taus {
				if want := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau)); got[i] != want {
					t.Errorf("seed %d R=%d T=%d tau=%d (grid %v):\n curve %+v\n cell  %+v", seed, tr.Refs, tail, tau, taus, got[i], want)
				}
			}
		}
	}
}

// TestWSCurveStreamedAndRenumbered checks that Curve gives the per-cell
// results, as on the in-memory trace, on the same stream read from a
// CDT3 file in chunks that do not line up with the grid pass's blocks,
// and on a renumbered source whose pages lie far apart.
func TestWSCurveStreamedAndRenumbered(t *testing.T) {
	b := sweep.WSBlock
	tr := churnTrace(7, 5*b+555, 12, 2500)
	path := filepath.Join(t.TempDir(), "t.cdt3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteCDT3(f, tr, 1000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := trace.OpenCDT3(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	sparse := trace.New("sparse")
	for _, pg := range tr.Pages() {
		sparse.AddRef(pg << 19) // distinct pages stay distinct below 2^31
	}
	sparse.Finish()

	taus := []int{1, 3, 40, b - 1, b, b + 1, 2*b + 7, 3 * b, 4*b + 1}
	want := make([]vmsim.Result, len(taus))
	for i, tau := range taus {
		want[i] = vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
	}
	for _, src := range []struct {
		name string
		src  trace.Source
	}{{"in-memory", tr}, {"streamed", file}, {"renumbered", sparse}} {
		got, err := mustWS(t, src.src).Curve(taus)
		if err != nil {
			t.Fatal(err)
		}
		for i, tau := range taus {
			if got[i] != want[i] {
				t.Errorf("%s tau=%d:\n curve %+v\n cell  %+v", src.name, tau, got[i], want[i])
			}
		}
	}
}

// cyclicBetween runs cyclicTrace over p pages for rounds between two
// references to page p, which put the tail threshold at the end: every
// window below it is walked, and every other re-reference has backward
// interval p.
func cyclicBetween(p, rounds int) *trace.Trace {
	tr := trace.New(fmt.Sprintf("cyclic%d", p))
	tr.AddRef(mem.Page(p))
	for _, pg := range cyclicTrace(p, rounds).Pages() {
		tr.AddRef(pg)
	}
	tr.AddRef(mem.Page(p))
	tr.Finish()
	return tr
}

// outliveMask counts the references of tr that are still their page's
// latest reference LiveBits steps on: those, and only those, enter a
// grid pass's expiry queues.
func outliveMask(tr *trace.Trace) int {
	pages := tr.Pages()
	next := map[mem.Page]int{}
	n := 0
	for u := len(pages) - 1; u >= 0; u-- {
		if nx, ok := next[pages[u]]; u+sweep.LiveBits < len(pages) && (!ok || nx-u > sweep.LiveBits) {
			n++
		}
		next[pages[u]] = u
	}
	return n
}

// TestWSCurveMaskBoundary is the per-cell differential of every window
// in 1..130 around the grid scan's live mask, whose windows up to
// LiveBits read their working set off the mask while the larger ones
// expire references through queues. Cyclic sweeps of 63–66 pages put
// every backward interval at or next to the mask width, traces shorter
// than it never fill it, and the churn traces run both halves across
// blocks. Grids wholly within the mask and wholly above it are walked
// on their own: the first makes no ring and queues nothing, the second
// queues exactly the references still live LiveBits steps on.
func TestWSCurveMaskBoundary(t *testing.T) {
	b := sweep.WSBlock
	inputs := []*trace.Trace{
		churnTrace(1, 3*b+977, 9, 3200),
		churnTrace(2, 3*b+1954, 10, 3400),
	}
	for _, p := range []int{63, 64, 65, 66} {
		inputs = append(inputs, cyclicBetween(p, 2*b/p+3))
	}
	for n := 1; n < sweep.LiveBits; n++ {
		inputs = append(inputs, randomTrace(uint64(n), n, 1+n%9))
	}
	all := make([]int, 130)
	for i := range all {
		all[i] = i + 1
	}
	within, above := all[:sweep.LiveBits], all[sweep.LiveBits:]
	for _, tr := range inputs {
		want := make([]vmsim.Result, len(all))
		for i, tau := range all {
			want[i] = vmsim.Run(tr.RefsOnly(), policy.NewWS(tau))
		}
		tail := mustWS(t, tr).Tail()
		for _, taus := range [][]int{all, within, above} {
			passes, stop := sweep.RecordPasses()
			got, err := mustWS(t, tr).Curve(taus)
			stop()
			if err != nil {
				t.Fatal(err)
			}
			for i, tau := range taus {
				if got[i] != want[tau-1] {
					t.Errorf("%s R=%d T=%d tau=%d (grid %d..%d):\n curve %+v\n cell  %+v", tr.Name, tr.Refs, tail, tau, taus[0], taus[len(taus)-1], got[i], want[tau-1])
				}
			}
			ps := passes()
			if tail <= taus[0] {
				if len(ps) != 0 {
					t.Errorf("%s R=%d T=%d: grid %d..%d lies in the closed-form tail yet made %d traversals", tr.Name, tr.Refs, tail, taus[0], taus[len(taus)-1], len(ps))
				}
				continue
			}
			if len(ps) != 1 {
				t.Fatalf("%s: grid %d..%d made %d traversals, want 1", tr.Name, taus[0], taus[len(taus)-1], len(ps))
			}
			wantQueued, wantRing := outliveMask(tr), true
			if walked := ps[0].Grid; walked[len(walked)-1] <= sweep.LiveBits {
				wantQueued, wantRing = 0, false
			}
			if ps[0].Queued != wantQueued || (ps[0].Ring > 0) != wantRing {
				t.Errorf("%s R=%d T=%d: pass over %v queued %d references with a %d-slot ring, want %d queued, ring %v",
					tr.Name, tr.Refs, tail, ps[0].Grid, ps[0].Queued, ps[0].Ring, wantQueued, wantRing)
			}
		}
	}
}
