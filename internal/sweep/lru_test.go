package sweep_test

import (
	"fmt"
	"slices"
	"testing"

	"cdmm/internal/mem"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

// cyclicTrace cycles over pages 0..v-1 for rounds: every re-reference
// is at distance v, the worst case for a stack pass.
func cyclicTrace(v, rounds int) *trace.Trace {
	tr := trace.New(fmt.Sprintf("cyclic%d", v))
	for range rounds {
		for p := range v {
			tr.AddRef(mem.Page(p))
		}
	}
	tr.Finish()
	return tr
}

// uniformTrace draws n pages uniformly from [0, v): distances spread
// over the whole stack.
func uniformTrace(seed uint64, n, v int) *trace.Trace {
	tr := trace.New(fmt.Sprintf("uniform%d", v))
	for range n {
		seed = seed*6364136223846793005 + 1442695040888963407
		tr.AddRef(mem.Page(int(seed>>33) % v))
	}
	tr.Finish()
	return tr
}

// checkLRUOracle requires the stack pass to give the Fenwick oracle's
// distance histogram and distinct-page count on src, and NewLRU the
// oracle's faults at every allocation. It returns the pass.
func checkLRUOracle(t *testing.T, name string, src trace.Source) sweep.LRUPass {
	t.Helper()
	pass, err := sweep.LRUDistances(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	hist, v, err := sweep.FenwickDistances(src)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if pass.V != v || !slices.Equal(pass.Hist, hist) {
		t.Fatalf("%s: V=%d, histogram %v; the oracle's V=%d, %v", name, pass.V, pass.Hist, v, hist)
	}
	curve, err := sweep.NewLRU(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := sweep.LRUCurveOf(src.Meta().Refs, v, hist)
	if curve.V != want.V || curve.Refs != want.Refs {
		t.Fatalf("%s: V=%d R=%d, the oracle's V=%d R=%d", name, curve.V, curve.Refs, want.V, want.Refs)
	}
	for m := 0; m <= curve.V+1; m++ {
		if curve.Faults(m) != want.Faults(m) {
			t.Fatalf("%s: m=%d faults %d, the oracle's %d", name, m, curve.Faults(m), want.Faults(m))
		}
	}
	return pass
}

// TestLRUMatchesFenwickOracle: the word-bitset stack pass and the
// Fenwick pass over positions it replaced agree on the nine workload
// traces, on cyclic, uniform and local traces up to V = 200,000, and on
// streams that renumber their positions over a hundred times.
func TestLRUMatchesFenwickOracle(t *testing.T) {
	for _, w := range workloads.All() {
		_, tr := compiled(t, w.Name)
		checkLRUOracle(t, w.Name, tr)
	}
	for _, tr := range []*trace.Trace{
		cyclicTrace(200_000, 3),
		cyclicTrace(5_000, 20),
		cyclicTrace(64*sweep.LRUScanWords+1, 20),
		uniformTrace(1, 400_000, 100_000),
		uniformTrace(2, 200_000, 2_000),
		randomTrace(3, 200_000, 300),
		randomTrace(4, 100_000, 20_000),
	} {
		checkLRUOracle(t, tr.Name, tr)
	}
	for _, c := range []struct {
		name string
		src  trace.Source
	}{
		{"local x1", randomTrace(5, 200_000, 12)},
		{"local repeated", trace.Repeat(randomTrace(6, 5_000, 300), 60)},
		{"uniform repeated", trace.Repeat(uniformTrace(7, 3_000, 1_000), 150)},
	} {
		if pass := checkLRUOracle(t, c.name, c.src); pass.Compactions < 100 {
			t.Errorf("%s: renumbered %d times, want at least 100", c.name, pass.Compactions)
		}
	}
}

// TestLRUScanBounded: no reference counts more than LRUScanWords bitset
// words one by one, on the trace whose every distance spans the whole
// stack and on one whose distances stay short. The bound is structural:
// past it the word tree answers in O(log(n/64)).
func TestLRUScanBounded(t *testing.T) {
	for _, c := range []struct {
		tr       *trace.Trace
		scanning bool // some reference counts words one by one
	}{
		{cyclicTrace(200_000, 3), false},
		{randomTrace(8, 100_000, 300), true},
	} {
		pass, err := sweep.LRUDistances(c.tr)
		if err != nil {
			t.Fatal(err)
		}
		if pass.ReRefs != c.tr.Refs-c.tr.Distinct {
			t.Errorf("%s: the hook saw %d re-references, want %d", c.tr.Name, pass.ReRefs, c.tr.Refs-c.tr.Distinct)
		}
		if pass.MaxScanned > sweep.LRUScanWords {
			t.Errorf("%s: a reference counted %d words one by one, want at most %d", c.tr.Name, pass.MaxScanned, sweep.LRUScanWords)
		}
		if scanning := pass.MaxScanned > 0; scanning != c.scanning {
			t.Errorf("%s: counted up to %d words one by one; want scanning=%v", c.tr.Name, pass.MaxScanned, c.scanning)
		}
	}
}

// BenchmarkNewLRU times the stack pass per reference on the worst-case
// cyclic trace, a uniform one and a local one.
func BenchmarkNewLRU(b *testing.B) {
	for _, tr := range []*trace.Trace{
		cyclicTrace(200_000, 5),
		uniformTrace(1, 1_000_000, 100_000),
		randomTrace(3, 1_000_000, 300),
	} {
		b.Run(tr.Name, func(b *testing.B) {
			for range b.N {
				if _, err := sweep.NewLRU(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Refs), "ns/ref")
		})
	}
}
