package obs

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func TestLog2Buckets(t *testing.T) {
	cases := []struct {
		v      int64
		idx    int
		lo, hi int64
	}{
		{-5, 0, 0, 0},
		{0, 0, 0, 0},
		{1, 1, 1, 1},
		{2, 2, 2, 3},
		{3, 2, 2, 3},
		{4, 3, 4, 7},
		{1023, 10, 512, 1023},
		{1024, 11, 1024, 2047},
		{math.MaxInt64, 63, 1 << 62, math.MaxInt64},
	}
	for _, c := range cases {
		if got := log2Index(c.v); got != c.idx {
			t.Errorf("log2Index(%d) = %d, want %d", c.v, got, c.idx)
		}
		lo, hi := Log2BucketBounds(c.idx)
		if lo != c.lo || hi != c.hi {
			t.Errorf("bounds(%d) = [%d,%d], want [%d,%d]", c.idx, lo, hi, c.lo, c.hi)
		}
		if c.v >= 0 && (c.v < lo || c.v > hi) {
			t.Errorf("value %d outside its own bucket [%d,%d]", c.v, lo, hi)
		}
	}
}

// TestLog2QuantileBounds checks the exactness guarantee: for random data
// the true rank-quantile always lies within the returned bounds, and the
// bounds never span more than a factor of two (beyond min/max clamping).
func TestLog2QuantileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var h Log2Hist
		n := 1 + rng.Intn(400)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1 << uint(1+rng.Intn(40)))
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			truth := vals[rank-1]
			lo, hi := h.Quantile(q)
			if truth < lo || truth > hi {
				t.Fatalf("trial %d q=%g: true quantile %d outside [%d,%d]", trial, q, truth, lo, hi)
			}
			if lo > 0 && hi > 2*lo {
				t.Fatalf("trial %d q=%g: bounds [%d,%d] wider than 2x", trial, q, lo, hi)
			}
		}
	}
}

// TestLog2MergeOrderIndependent is the merge-commutativity property test:
// any merge order over the same shard histograms yields identical state.
func TestLog2MergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		shards := make([]*Log2Hist, 2+rng.Intn(6))
		for i := range shards {
			shards[i] = &Log2Hist{}
			for n := rng.Intn(200); n > 0; n-- {
				shards[i].Observe(rng.Int63n(1 << 30))
			}
		}
		merge := func(order []int) Log2Hist {
			var m Log2Hist
			for _, i := range order {
				m.Merge(shards[i])
			}
			return m
		}
		order := make([]int, len(shards))
		for i := range order {
			order[i] = i
		}
		want := merge(order)
		for p := 0; p < 10; p++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			if got := merge(order); got != want {
				t.Fatalf("trial %d: merge order %v changed the result", trial, order)
			}
		}
	}
}

func TestLog2EmptyAndAggregates(t *testing.T) {
	var h Log2Hist
	if h.count != 0 || h.sum != 0 || h.Min() != 0 || h.Max() != 0 || h.Snapshot().Mean() != 0 {
		t.Error("empty histogram aggregates must be zero")
	}
	if lo, hi := h.Quantile(0.5); lo != 0 || hi != 0 {
		t.Errorf("empty quantile = [%d,%d], want [0,0]", lo, hi)
	}
	for _, v := range []int64{5, 9, 1200, 0} {
		h.Observe(v)
	}
	if h.count != 4 || h.sum != 1214 || h.Min() != 0 || h.Max() != 1200 {
		t.Errorf("aggregates = %d/%d/%d/%d", h.count, h.sum, h.Min(), h.Max())
	}
	s := h.Snapshot()
	if s.Mean() != 1214.0/4 {
		t.Errorf("mean = %g", s.Mean())
	}
	var total int64
	for _, bk := range s.Buckets {
		total += bk.N
		if bk.N == 0 {
			t.Error("snapshot must only carry occupied buckets")
		}
	}
	if total != 4 {
		t.Errorf("bucket total = %d, want 4", total)
	}
	if s.Count != 4 || s.Sum != 1214 || s.Min != 0 || s.Max != 1200 {
		t.Errorf("snapshot aggregates = %d/%d/%d/%d", s.Count, s.Sum, s.Min, s.Max)
	}
}

func TestLog2PromGolden(t *testing.T) {
	var h Log2Hist
	for _, v := range []int64{0, 1, 1, 3, 7, 7, 7, 100, 5000} {
		h.Observe(v)
	}
	b := h.Snapshot().AppendProm(nil, "cdmm_kernel_fault_latency", "kernel fault-service virtual latency per quantum")
	golden := filepath.Join("testdata", "prom_log2.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(b, want) {
		t.Errorf("log2 prometheus text drifted:\n--- got ---\n%s\n--- want ---\n%s", b, want)
	}
	// And it must satisfy the generic exposition checker.
	s := parseProm(t, string(b))
	if got := s[`cdmm_kernel_fault_latency_bucket{le="+Inf"}`]; got != 9 {
		t.Errorf("+Inf bucket = %g, want 9", got)
	}
	if got := s["cdmm_kernel_fault_latency_count"]; got != 9 {
		t.Errorf("_count = %g, want 9", got)
	}
	if got := s["cdmm_kernel_fault_latency_sum"]; got != 5126 {
		t.Errorf("_sum = %g, want 5126", got)
	}
	// le="1" covers the two 1s plus the single 0 (bucket 0 has hi=0,
	// rendered cumulatively before it).
	if got := s[`cdmm_kernel_fault_latency_bucket{le="7"}`]; got != 7 {
		t.Errorf("le=7 bucket = %g, want 7", got)
	}
}
