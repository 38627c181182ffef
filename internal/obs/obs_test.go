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

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5} {
		h.Observe(v)
	}
	// Upper bounds are inclusive: bucket i counts bounds[i-1] < v <= bounds[i].
	want := []int64{2, 2, 2, 1}
	if h.NumBuckets() != len(want) {
		t.Fatalf("buckets = %d, want %d", h.NumBuckets(), len(want))
	}
	for i, w := range want {
		le, n := h.Bucket(i)
		if n != w {
			t.Errorf("bucket %d (le %g) = %d, want %d", i, le, n, w)
		}
	}
	if le, _ := h.Bucket(3); !math.IsInf(le, 1) {
		t.Errorf("last bucket bound = %g, want +Inf", le)
	}
	if h.Count() != 7 || h.Sum() != 17 {
		t.Errorf("count=%d sum=%g, want 7/17", h.Count(), h.Sum())
	}
}

func TestBoundsBuilders(t *testing.T) {
	if got := ExpBounds(1, 2, 4); !reflect.DeepEqual(got, []float64{1, 2, 4, 8}) {
		t.Errorf("ExpBounds = %v", got)
	}
	if got := LinearBounds(2, 3, 3); !reflect.DeepEqual(got, []float64{2, 5, 8}) {
		t.Errorf("LinearBounds = %v", got)
	}
}

func TestRegistryJSONAndRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("faults").Add(12)
	r.Gauge("mem").Set(7.25)
	h := r.Histogram("dist", []float64{10, 100})
	h.Observe(3)
	h.Observe(250)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Hists    map[string]struct {
			Count   int64 `json:"count"`
			Buckets []struct {
				N int64 `json:"n"`
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
	if d.Count != 2 || len(d.Buckets) != 3 || d.Buckets[0].N != 1 || d.Buckets[2].N != 1 {
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
// counter and histogram updates through one shared registry sum exactly.
// Run under -race to exercise the atomic paths.
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
			h := r.Histogram("dist", []float64{10, 100, 1000})
			g := r.Gauge("last")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i % 2000))
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("dist", nil)
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	var bucketSum int64
	for i := 0; i < h.NumBuckets(); i++ {
		_, n := h.Bucket(i)
		bucketSum += n
	}
	if bucketSum != h.Count() {
		t.Errorf("bucket sum %d != count %d", bucketSum, h.Count())
	}
	// Each worker observes 0..1999 repeatedly, so min/max are exact.
	if h.Min() != 0 || h.Max() != 1999 {
		t.Errorf("min/max = %g/%g, want 0/1999", h.Min(), h.Max())
	}
	wantSum := float64(workers) * float64(perWorker/2000) * (1999.0 * 2000.0 / 2)
	if h.Sum() != wantSum {
		t.Errorf("sum = %g, want %g", h.Sum(), wantSum)
	}
	if g := r.Gauge("last").Value(); g < 0 || g >= workers {
		t.Errorf("gauge = %g, want one of the written values", g)
	}
}

// TestHistogramEmptyMinMax pins the empty-histogram rendering contract:
// Min and Max report 0, not the +/-Inf initialization sentinels.
func TestHistogramEmptyMinMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty", []float64{1})
	if h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty min/max = %g/%g, want 0/0", h.Min(), h.Max())
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); !strings.Contains(s, `"min":0,"max":0`) {
		t.Errorf("empty histogram JSON should carry min/max 0: %s", s)
	}
}
