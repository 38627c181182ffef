package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// promRegistry builds the fixture registry the golden file pins down:
// counters (one with characters that need sanitizing), gauges, and a
// histogram exercising the bucket edges, merged from two runs.
func promRegistry() *Registry {
	r := NewRegistry()
	r.Counter("faults").Add(42)
	r.Counter("lock.releases-per/run").Add(7) // sanitized to lock_releases_per_run_total
	r.Counter("swaps_total").Add(3)           // suffix must not double
	r.Gauge("max_resident").Set(24)
	r.Gauge("mem_avg").Set(12.25)
	mergeValues(r, "fault_interarrival", 0, 1, 1, 2)
	mergeValues(r, "fault_interarrival", 3, 4, 5, 2001)
	return r
}

// promText renders one fresh snapshot of r in the exposition format.
func promText(r *Registry) []byte { return r.Snapshot().AppendPrometheus(nil, "cdmm") }

func TestWritePrometheusGolden(t *testing.T) {
	got := promText(promRegistry())
	golden := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("prometheus text drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// parseProm is a miniature exposition-format checker: every non-comment
// line must be `name value` or `name{le="bound"} value`, histogram
// bucket series must be cumulative and end in the +Inf bucket matching
// _count. It returns the parsed samples keyed by full series name.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	var lastBucketName string
	var lastCum float64
	for ln, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || name == "" {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			series, labels := name[:i], name[i:]
			if !strings.HasSuffix(series, "_bucket") {
				t.Fatalf("line %d: labels on non-bucket series %q", ln+1, line)
			}
			if !strings.HasPrefix(labels, `{le="`) || !strings.HasSuffix(labels, `"}`) {
				t.Fatalf("line %d: malformed le label %q", ln+1, labels)
			}
			le := labels[len(`{le="`) : len(labels)-len(`"}`)]
			if le != "+Inf" {
				if _, err := strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("line %d: bad le bound %q", ln+1, le)
				}
			}
			if series == lastBucketName && v < lastCum {
				t.Fatalf("line %d: bucket counts not cumulative (%g after %g)", ln+1, v, lastCum)
			}
			lastBucketName, lastCum = series, v
			samples[name] = v
			continue
		}
		for _, c := range name {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
				t.Fatalf("line %d: invalid metric name char %q in %q", ln+1, c, name)
			}
		}
		samples[name] = v
	}
	return samples
}

func TestWritePrometheusFormat(t *testing.T) {
	s := parseProm(t, string(promText(promRegistry())))
	if got := s["cdmm_faults_total"]; got != 42 {
		t.Errorf("cdmm_faults_total = %g, want 42", got)
	}
	if got := s["cdmm_lock_releases_per_run_total"]; got != 7 {
		t.Errorf("sanitized counter = %g, want 7", got)
	}
	if _, twice := s["cdmm_swaps_total_total"]; twice {
		t.Error("_total suffix was doubled")
	}
	if got := s["cdmm_swaps_total"]; got != 3 {
		t.Errorf("cdmm_swaps_total = %g, want 3", got)
	}
	if got := s["cdmm_mem_avg"]; got != 12.25 {
		t.Errorf("cdmm_mem_avg = %g, want 12.25", got)
	}
	// 8 observations; the +Inf cumulative bucket must equal _count.
	if got := s[`cdmm_fault_interarrival_bucket{le="+Inf"}`]; got != 8 {
		t.Errorf(`+Inf bucket = %g, want 8`, got)
	}
	if got := s["cdmm_fault_interarrival_count"]; got != 8 {
		t.Errorf("_count = %g, want 8", got)
	}
	if got := s["cdmm_fault_interarrival_sum"]; got != 2017 {
		t.Errorf("_sum = %g, want 2017", got)
	}
	// Inclusive upper bounds: le="3" counts 0, 1, 1, 2, 3.
	if got := s[`cdmm_fault_interarrival_bucket{le="3"}`]; got != 5 {
		t.Errorf(`le=3 bucket = %g, want 5`, got)
	}
}

func TestEscapeLabelValue(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		`back\slash`:   `back\\slash`,
		`qu"ote`:       `qu\"ote`,
		"new\nline":    `new\nline`,
		`all\"` + "\n": `all\\\"\n`,
	}
	for in, want := range cases {
		if got := EscapeLabelValue(in); got != want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusDuringConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("refs")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h Log2Hist
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(int64(i % 10))
				if i%64 == 63 { // a run ends: merge it, start the next
					r.MergeHist("res", &h)
					h = Log2Hist{}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		parseProm(t, string(promText(r))) // must stay well-formed mid-flight
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := promRegistry()
	s := r.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Errorf("counters not sorted: %q >= %q", s.Counters[i-1].Name, s.Counters[i].Name)
		}
	}
	if len(s.Counters) != 3 || len(s.Gauges) != 2 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot sizes = %d/%d/%d, want 3/2/1", len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	h := s.Histograms[0]
	if h.Count != 8 {
		t.Errorf("hist count = %d, want 8", h.Count)
	}
	if n := len(h.Buckets); n != 5 {
		t.Fatalf("buckets = %d, want 5 (le 0, 1, 3, 7, 2047)", n)
	}
	if hi := h.Buckets[4].Hi; hi != 2047 {
		t.Errorf("last bucket bound = %d, want 2047, the one holding the maximum", hi)
	}
	var total int64
	for _, b := range h.Buckets {
		total += b.N
	}
	if total != h.Count {
		t.Errorf("bucket sum %d != count %d", total, h.Count)
	}
	if h.Min != 0 || h.Max != 2001 {
		t.Errorf("min/max = %d/%d, want 0/2001", h.Min, h.Max)
	}
}

func TestGateDisablesObserver(t *testing.T) {
	g := &toggleGate{}
	o := &Observer{Tracer: &Collector{}, Metrics: NewRegistry(), Gate: g}
	if o.Enabled() {
		t.Error("closed gate must disable the observer")
	}
	g.open.Store(true)
	if !o.Enabled() {
		t.Error("open gate must enable the observer")
	}
	if (&Observer{Gate: g}).Enabled() {
		t.Error("gate alone (no tracer/metrics) must not enable")
	}
	var nilObs *Observer
	if ProgressOf(nilObs) != nil {
		t.Error("ProgressOf(nil) must be nil")
	}
	called := false
	o.Progress = func(done, total int, vt int64) { called = true }
	ProgressOf(o)(1, 2, 3)
	if !called {
		t.Error("ProgressOf must return the observer's callback")
	}
}

type toggleGate struct{ open atomic.Bool }

func (g *toggleGate) Open() bool { return g.open.Load() }
