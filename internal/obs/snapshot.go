package obs

import (
	"cmp"
	"slices"
)

// CounterSnapshot is one counter's name and value at snapshot time.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// GaugeSnapshot is one gauge's name and last-set value.
type GaugeSnapshot struct {
	Name  string
	Value float64
}

// HistogramSnapshot is one registry histogram: its name and state.
type HistogramSnapshot struct {
	Name string
	Log2Snapshot
}

// Snapshot is a point-in-time read of a whole registry with every
// section sorted by name, the single source every export path (JSON
// file, human rendering, Prometheus scrape) formats from.
type Snapshot struct {
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// Snapshot reads all counters, gauges and histograms in one pass.
// Counter increments concurrent with the snapshot land in it or in the
// next one; a histogram changes only by whole-run merges, which hold
// the same lock as the snapshot, so each histogram is read consistent.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.SnapshotInto(&s)
	return s
}

// SnapshotInto refills s from the registry, reusing s's slices (and each
// histogram entry's bucket slice) so a tight scrape loop that keeps one
// Snapshot around stays allocation-free once capacities have grown to
// fit. The handles' atomics are read under the registration lock, which
// only contends with registration of new metrics — never the hot path.
func (r *Registry) SnapshotInto(s *Snapshot) {
	r.mu.Lock()
	s.Counters = s.Counters[:0]
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	s.Gauges = s.Gauges[:0]
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	// Truncating s.Histograms parks the previous entries — and their
	// bucket slices — in the backing array; entry i's old bucket slice
	// is captured before append overwrites slot i, so its capacity is
	// recycled for the new entry.
	old := s.Histograms
	s.Histograms = s.Histograms[:0]
	for name, h := range r.hists {
		hs := HistogramSnapshot{Name: name}
		if n := len(s.Histograms); n < len(old) {
			hs.Buckets = old[n].Buckets
		}
		h.snapshotInto(&hs.Log2Snapshot)
		s.Histograms = append(s.Histograms, hs)
	}
	r.mu.Unlock()
	slices.SortFunc(s.Counters, func(a, b CounterSnapshot) int { return cmp.Compare(a.Name, b.Name) })
	slices.SortFunc(s.Gauges, func(a, b GaugeSnapshot) int { return cmp.Compare(a.Name, b.Name) })
	slices.SortFunc(s.Histograms, func(a, b HistogramSnapshot) int { return cmp.Compare(a.Name, b.Name) })
}
