package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("faults")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("faults") != c {
		t.Error("re-registration must return the same counter")
	}
	g := r.Gauge("mem")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Errorf("gauge = %g, want 3.5", g.Value())
	}
	if r.Gauge("mem") != g {
		t.Error("re-registration must return the same gauge")
	}
}

// mergeValues merges one run's histogram of vals into r under name.
func mergeValues(r *Registry, name string, vals ...int64) {
	var h Log2Hist
	for _, v := range vals {
		h.Observe(v)
	}
	r.MergeHist(name, &h)
}

// TestHistogramBucketEdges: a registry histogram holds the log2 buckets
// of every merged value, each keyed by its inclusive upper bound, and
// merges add bucket by bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	mergeValues(r, "h", 0, 1, 2, 3, 4, 7)
	mergeValues(r, "h", 8, 3)
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	h := s.Histograms[0]
	// Upper bounds are inclusive: le=3 counts 2, 3 and 3; le=7 counts 4 and 7.
	want := []Log2Bucket{{0, 0, 0, 1}, {1, 1, 1, 1}, {2, 2, 3, 3}, {3, 4, 7, 2}, {4, 8, 15, 1}}
	if !reflect.DeepEqual(h.Buckets, want) {
		t.Errorf("buckets = %+v, want %+v", h.Buckets, want)
	}
	if h.Count != 8 || h.Sum != 28 || h.Min != 0 || h.Max != 8 {
		t.Errorf("count=%d sum=%d min=%d max=%d, want 8/28/0/8", h.Count, h.Sum, h.Min, h.Max)
	}
}

// TestBoundsBuilders: the log2 bucket bounds tile the non-negative
// int64 range, each bucket starting one past the previous one's
// inclusive upper bound, so no integer observation can overflow.
func TestBoundsBuilders(t *testing.T) {
	if lo, hi := Log2BucketBounds(0); lo != 0 || hi != 0 {
		t.Errorf("bucket 0 = [%d,%d], want [0,0]", lo, hi)
	}
	for i := 1; i < 64; i++ {
		_, prevHi := Log2BucketBounds(i - 1)
		lo, hi := Log2BucketBounds(i)
		if lo != prevHi+1 || hi < lo {
			t.Fatalf("bucket %d = [%d,%d] after upper bound %d", i, lo, hi, prevHi)
		}
	}
	if _, hi := Log2BucketBounds(63); hi != math.MaxInt64 {
		t.Errorf("bucket 63 ends at %d, want MaxInt64", hi)
	}
}

func TestRegistryJSONAndRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("faults").Add(12)
	r.Gauge("mem").Set(7.25)
	mergeValues(r, "dist", 3, 250)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Hists    map[string]struct {
			Count   int64 `json:"count"`
			Sum     int64 `json:"sum"`
			Buckets []struct {
				LE int64 `json:"le"`
				N  int64 `json:"n"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["faults"] != 12 || snap.Gauges["mem"] != 7.25 {
		t.Errorf("snapshot = %+v", snap)
	}
	d := snap.Hists["dist"]
	if d.Count != 2 || d.Sum != 253 || len(d.Buckets) != 2 ||
		d.Buckets[0].LE != 3 || d.Buckets[0].N != 1 || d.Buckets[1].LE != 255 || d.Buckets[1].N != 1 {
		t.Errorf("histogram snapshot = %+v", d)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{T: 0, Kind: KindRun, Label: "CD", Refs: 100},
		{T: 2001, Kind: KindFault, I: 1, Page: 0, Res: 1},
		{T: 2001, Kind: KindRes, I: 1, Res: 1},
		{T: 2005, Kind: KindAlloc, Label: "L10"},
		{T: 2005, Kind: KindPhase, Prev: 2, Alloc: 6},
		{T: 2010, Kind: KindLock, PJ: 2, Site: 3, Pages: 4},
		{T: 2500, Kind: KindUnlock, Pages: 4},
		{T: 2600, Kind: KindLockRel, Page: 7},
		{T: 2700, Kind: KindSwap, Job: "a", Why: "signal"},
		{T: 2800, Kind: KindJobDone, Job: "a", Refs: 100, Faults: 3},
		{T: 3000, Kind: KindEnd, Refs: 100, Faults: 3, Mem: 1.75},
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

func TestReplay(t *testing.T) {
	// 10 references: charge 2 for refs 1-3, charge 5 for refs 4-9,
	// charge 3 for ref 10. Two faults.
	events := []Event{
		{T: 1, Kind: KindRes, I: 1, Res: 2},
		{T: 2001, Kind: KindFault, I: 2, Page: 4, Res: 2},
		{T: 4004, Kind: KindFault, I: 4, Page: 5, Res: 5},
		{T: 4004, Kind: KindRes, I: 4, Res: 5},
		{T: 4010, Kind: KindRes, I: 10, Res: 3},
		{T: 4010, Kind: KindEnd, Refs: 10, Faults: 2},
	}
	refs, faults, memSum := Replay(events)
	if refs != 10 || faults != 2 {
		t.Errorf("refs=%d faults=%d, want 10/2", refs, faults)
	}
	want := 2.0*3 + 5.0*6 + 3.0*1
	if memSum != want {
		t.Errorf("memSum = %g, want %g", memSum, want)
	}
}

// TestRegistryConcurrent checks the satellite guarantee: parallel
// counter updates and histogram merges through one shared registry sum
// exactly. Run under -race to exercise the shared paths.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Registration races with use on purpose: every goroutine
			// must get the same handles back.
			c := r.Counter("shared")
			g := r.Gauge("last")
			var h Log2Hist
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i % 2000))
				g.Set(float64(w))
			}
			r.MergeHist("dist", &h)
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Snapshot().Histograms[0]
	if h.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b.N
	}
	if bucketSum != h.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, h.Count)
	}
	// Each worker observes 0..1999 repeatedly, so min/max are exact.
	if h.Min != 0 || h.Max != 1999 {
		t.Errorf("min/max = %d/%d, want 0/1999", h.Min, h.Max)
	}
	if wantSum := int64(workers * (perWorker / 2000) * (1999 * 2000 / 2)); h.Sum != wantSum {
		t.Errorf("sum = %d, want %d", h.Sum, wantSum)
	}
	if g := r.Gauge("last").Value(); g < 0 || g >= workers {
		t.Errorf("gauge = %g, want one of the written values", g)
	}
}

// TestHistogramEmptyMinMax pins the empty-histogram rendering contract:
// merging an empty histogram registers the name, and Min and Max report
// 0 with no buckets.
func TestHistogramEmptyMinMax(t *testing.T) {
	r := NewRegistry()
	r.MergeHist("empty", &Log2Hist{})
	s := r.Snapshot()
	if len(s.Histograms) != 1 || s.Histograms[0].Name != "empty" {
		t.Fatalf("histograms = %+v, want the one empty entry", s.Histograms)
	}
	if h := s.Histograms[0]; h.Min != 0 || h.Max != 0 || h.Count != 0 {
		t.Errorf("empty count/min/max = %d/%d/%d, want 0/0/0", h.Count, h.Min, h.Max)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); !strings.Contains(s, `"min":0,"max":0,"buckets":[]`) {
		t.Errorf("empty histogram JSON should carry min/max 0 and no buckets: %s", s)
	}
}
