package kernel

import (
	"fmt"
	"strings"
	"sync"

	"cdmm/internal/obs"
)

// The kernel's telemetry plane turns the end-of-run aggregates into
// distributions: per-shard log2 histograms of the latencies that matter
// operationally (fault service, admission wait, suspension duration,
// reclaim yield, resident occupancy). Everything is collected in
// shard-local integer state — no locks, no atomics, no floats in the hot
// loop — and merged shard→global in shard order at the run barrier, so a
// telemetry-on run is byte-identical at any -j and its core results are
// byte-identical to a telemetry-off run.

// telem is one shard's telemetry collection state. All values are in
// virtual time (ticks) or integral units; nothing here depends on wall
// clocks or scheduling, which is what keeps the plane deterministic.
type telem struct {
	faultLat     obs.Log2Hist // per-quantum fault-service latency (faults × FaultService)
	admitWait    obs.Log2Hist // queued → admitted, per admission
	suspDur      obs.Log2Hist // suspended → resumed, per resume
	reclaimYield obs.Log2Hist // frames recovered per pressure wave (CD reclaim pass)
	occupancy    obs.Log2Hist // resident frames of the stepped tenant, per quantum
}

// merge folds o into t. Merging in shard order makes the global state
// deterministic.
func (t *telem) merge(o *telem) {
	if o == nil {
		return
	}
	t.faultLat.Merge(&o.faultLat)
	t.admitWait.Merge(&o.admitWait)
	t.suspDur.Merge(&o.suspDur)
	t.reclaimYield.Merge(&o.reclaimYield)
	t.occupancy.Merge(&o.occupancy)
}

// clone copies the shard state for lock-free publication: the shard
// hands the store a private copy at progress cadence and keeps mutating
// its own.
func (t *telem) clone() *telem {
	c := *t
	return &c
}

// Bound is an exact quantile bracket: the true quantile lies in [Lo, Hi].
type Bound struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// HistSnapshot is one named histogram with its quantile brackets.
type HistSnapshot struct {
	Name string `json:"name"`
	obs.Log2Snapshot
	P50 Bound `json:"p50"`
	P90 Bound `json:"p90"`
	P99 Bound `json:"p99"`
}

// TelemetrySnapshot is the merged, export-ready telemetry of a run (or
// of its live partial state mid-run): everything JSON-serializable,
// everything derived from integer state, byte-identical at any -j.
type TelemetrySnapshot struct {
	Hists []HistSnapshot `json:"histograms"`
}

func histSnap(name string, h *obs.Log2Hist) HistSnapshot {
	s := HistSnapshot{Name: name, Log2Snapshot: h.Snapshot()}
	s.P50.Lo, s.P50.Hi = h.Quantile(0.50)
	s.P90.Lo, s.P90.Hi = h.Quantile(0.90)
	s.P99.Lo, s.P99.Hi = h.Quantile(0.99)
	return s
}

// snapshot renders the telem state for export.
func (t *telem) snapshot() *TelemetrySnapshot {
	return &TelemetrySnapshot{Hists: []HistSnapshot{
		histSnap("fault_latency", &t.faultLat),
		histSnap("admit_wait", &t.admitWait),
		histSnap("suspend_duration", &t.suspDur),
		histSnap("reclaim_yield", &t.reclaimYield),
		histSnap("occupancy", &t.occupancy),
	}}
}

// Hist returns the named histogram, or nil.
func (ts *TelemetrySnapshot) Hist(name string) *HistSnapshot {
	for i := range ts.Hists {
		if ts.Hists[i].Name == name {
			return &ts.Hists[i]
		}
	}
	return nil
}

// RenderHists renders the histogram block of the run summary: count,
// mean, the p50/p99 brackets and the max, one line per histogram.
func (ts *TelemetrySnapshot) RenderHists() string {
	var b strings.Builder
	b.WriteString("telemetry (virtual ticks; quantiles are exact brackets):\n")
	for i := range ts.Hists {
		h := &ts.Hists[i]
		fmt.Fprintf(&b, "  %-17s n=%-8d mean=%-12.1f p50=[%d,%d] p99=[%d,%d] max=%d\n",
			h.Name, h.Count, h.Mean(), h.P50.Lo, h.P50.Hi, h.P99.Lo, h.P99.Hi, h.Max)
	}
	return b.String()
}

// TelemetryStore is the live publication point between a running kernel
// and the serve plane: shards publish cloned partials at progress
// cadence, Run publishes the final merged snapshot, and scrapes read a
// merged view at any moment in between. The mutex is only ever touched
// at the 64-quantum flush cadence and by scrapes — never per reference.
type TelemetryStore struct {
	mu        sync.Mutex
	run       string
	shards    []*telem
	final     *TelemetryView
	published bool
}

// TelemetryView is what a scrape of the store sees: the run descriptor,
// whether the run has completed, the incident count, and the merged
// telemetry snapshot.
type TelemetryView struct {
	Run              string             `json:"run"`
	Final            bool               `json:"final"`
	Incidents        int                `json:"incidents"`
	IncidentsDropped int64              `json:"incidentsDropped,omitempty"`
	Telemetry        *TelemetrySnapshot `json:"telemetry"`
}

// NewTelemetryStore returns an empty store.
func NewTelemetryStore() *TelemetryStore { return &TelemetryStore{} }

// begin resets the store for a run.
func (s *TelemetryStore) begin(run string, shards int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.run = run
	s.shards = make([]*telem, shards)
	s.final = nil
	s.published = true
}

// publishShard installs a shard's cloned partial state.
func (s *TelemetryStore) publishShard(i int, t *telem) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	if i >= 0 && i < len(s.shards) {
		s.shards[i] = t
	}
	s.mu.Unlock()
}

// publishFinal installs the run's completed view.
func (s *TelemetryStore) publishFinal(v *TelemetryView) {
	if s == nil || v == nil {
		return
	}
	s.mu.Lock()
	s.final = v
	s.mu.Unlock()
}

// Len reports how many runs have published into the store (0 or 1); the
// serve plane uses it to keep scrapes byte-identical until a kernel
// actually runs with telemetry.
func (s *TelemetryStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.published {
		return 1
	}
	return 0
}

// Snapshot returns the current view: the final view once the run has
// completed, otherwise a merge of the shard partials published so far
// (in shard order). Returns nil when nothing has been published.
func (s *TelemetryStore) Snapshot() *TelemetryView {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.final != nil {
		return s.final
	}
	if !s.published {
		return nil
	}
	m := &telem{}
	for _, t := range s.shards {
		if t != nil {
			m.merge(t)
		}
	}
	return &TelemetryView{Run: s.run, Telemetry: m.snapshot()}
}
