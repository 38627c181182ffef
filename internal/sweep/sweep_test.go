package sweep_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// randomTrace builds a deterministic pseudo-random trace with locality
// phases (bursts around a moving base), a realistic shape for sweeps.
func randomTrace(seed uint64, n, universe int) *trace.Trace {
	rng := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	tr := trace.New("rand")
	base := 0
	for i := 0; i < n; i++ {
		if rng()%97 == 0 {
			base = int(rng()) % universe
		}
		span := 4 + int(rng()%8)
		tr.AddRef(mem.Page((base + int(rng())%span) % universe))
	}
	return tr
}

func mustLRU(t *testing.T, src trace.Source) *sweep.LRUCurve {
	t.Helper()
	s, err := sweep.NewLRU(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustWS(t *testing.T, src trace.Source) *sweep.WS {
	t.Helper()
	s, err := sweep.NewWS(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bruteLRU is the brute-force oracle of the LRU curve: one full replay
// of the directive-free trace per allocation in [1, maxFrames], indexed
// by allocation-1.
func bruteLRU(tr *trace.Trace, maxFrames int) []vmsim.Result {
	refs := tr.RefsOnly()
	out := make([]vmsim.Result, maxFrames)
	for m := 1; m <= maxFrames; m++ {
		out[m-1] = vmsim.Run(refs, policy.NewLRU(m))
	}
	return out
}

func TestLRUCurveMatchesBrute(t *testing.T) {
	tr := randomTrace(42, 3000, 40)
	s := mustLRU(t, tr)
	brute := bruteLRU(tr, s.V)
	for m := 1; m <= s.V; m++ {
		b := brute[m-1]
		if got := s.Faults(m); got != b.Faults {
			t.Errorf("m=%d: faults %d != brute %d", m, got, b.Faults)
		}
		if got := s.MEM(m); math.Abs(got-b.MEM()) > 1e-6 {
			t.Errorf("m=%d: MEM %v != brute %v", m, got, b.MEM())
		}
		if got := s.ST(m); math.Abs(got-b.ST()) > 1e-3 {
			t.Errorf("m=%d: ST %v != brute %v", m, got, b.ST())
		}
		r := s.Result(m)
		if r.Faults != b.Faults || r.VirtualTime != b.VirtualTime || r.MemSum != b.MemSum || r.SpaceTime != b.SpaceTime || r.Policy != b.Policy {
			t.Errorf("m=%d: Result %+v != brute %+v", m, r, b)
		}
	}
}

func TestLRUCurvePropertyRandom(t *testing.T) {
	f := func(seed uint16) bool {
		tr := randomTrace(uint64(seed)+1, 600, 24)
		s, err := sweep.NewLRU(tr)
		if err != nil {
			return false
		}
		for _, m := range []int{1, 2, 3, 5, 8, s.V} {
			b := vmsim.Run(tr.RefsOnly(), policy.NewLRU(m))
			if s.Faults(m) != b.Faults {
				return false
			}
			if math.Abs(s.ST(m)-b.ST()) > 1e-3 {
				return false
			}
			if math.Abs(s.MEM(m)-b.MEM()) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLRUCurveCompression forces many Fenwick compressions (small
// universe, long trace: the position counter laps the tree capacity
// hundreds of times) and checks the compressed analysis stays exact.
func TestLRUCurveCompression(t *testing.T) {
	tr := randomTrace(3, 60000, 12)
	s := mustLRU(t, tr)
	brute := bruteLRU(tr, s.V)
	for m := 1; m <= s.V; m++ {
		if got := s.Faults(m); got != brute[m-1].Faults {
			t.Fatalf("m=%d: faults %d != brute %d", m, got, brute[m-1].Faults)
		}
	}
}

// TestLRUCurveStreamed runs the stack analysis directly over a chunked
// CDT3 file and requires bit-identical results to the in-memory pass.
func TestLRUCurveStreamed(t *testing.T) {
	tr := randomTrace(7, 20000, 30)
	path := filepath.Join(t.TempDir(), "t.cdt3")
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
	src, err := trace.OpenCDT3(path)
	if err != nil {
		t.Fatal(err)
	}
	memCurve := mustLRU(t, tr)
	fileCurve := mustLRU(t, src)
	if memCurve.V != fileCurve.V || memCurve.Refs != fileCurve.Refs {
		t.Fatalf("V/Refs mismatch: mem %d/%d file %d/%d", memCurve.V, memCurve.Refs, fileCurve.V, fileCurve.Refs)
	}
	for m := 1; m <= memCurve.V; m++ {
		if memCurve.Faults(m) != fileCurve.Faults(m) {
			t.Fatalf("m=%d: mem %d != streamed %d", m, memCurve.Faults(m), fileCurve.Faults(m))
		}
	}

	ws := mustWS(t, src)
	wsMem := mustWS(t, tr)
	for _, tau := range []int{1, 5, 50, 400} {
		a, err := ws.Run(tau)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wsMem.Run(tau)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("tau=%d: streamed %+v != mem %+v", tau, a, b)
		}
	}
}

func TestLRUCurveMinST(t *testing.T) {
	tr := randomTrace(7, 4000, 30)
	s := mustLRU(t, tr)
	m, st := s.MinST()
	for mm := 1; mm <= s.V; mm++ {
		if s.ST(mm) < st {
			t.Fatalf("MinST returned m=%d (%v) but m=%d has %v", m, st, mm, s.ST(mm))
		}
	}
}

func TestLRUCurveMinAllocationForFaults(t *testing.T) {
	tr := randomTrace(11, 3000, 25)
	s := mustLRU(t, tr)
	target := s.Faults(s.V / 2)
	m, ok := s.MinAllocationForFaults(target)
	if !ok {
		t.Fatal("target not achievable but it must be (it equals a sweep point)")
	}
	if s.Faults(m) > target {
		t.Errorf("m=%d faults %d exceed target %d", m, s.Faults(m), target)
	}
	if m > 1 && s.Faults(m-1) <= target {
		t.Errorf("m=%d is not minimal: m-1 also achieves the target", m)
	}
}

func TestFromLRUCells(t *testing.T) {
	tr := randomTrace(19, 2000, 20)
	curve := mustLRU(t, tr)
	cells := sweep.FromLRUCells(bruteLRU(tr, curve.V))
	if cells.V != curve.V || cells.Refs != curve.Refs {
		t.Fatalf("cell rebuild V/Refs mismatch: %d/%d vs %d/%d", cells.V, cells.Refs, curve.V, curve.Refs)
	}
	for m := 1; m <= curve.V; m++ {
		if cells.Faults(m) != curve.Faults(m) || cells.ST(m) != curve.ST(m) {
			t.Fatalf("m=%d: cell-built curve diverges", m)
		}
	}
	cm, cst := cells.MinST()
	m, st := curve.MinST()
	if cm != m || cst != st {
		t.Fatalf("MinST: cells (%d, %v) != curve (%d, %v)", cm, cst, m, st)
	}
}
