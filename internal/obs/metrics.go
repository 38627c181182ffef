package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds a run's named metrics. Registration (Counter, Gauge)
// returns a stable handle that the hot path updates without any map
// lookup or allocation; histograms are Log2Hists that each run fills on
// its own and adds with MergeHist when it ends. The registry and every
// handle it returns are safe for concurrent use: the experiment engine
// shares one registry across parallel simulation runs, so counter
// updates are atomic and histogram merges are serialized, and both sum
// exactly regardless of interleaving. (Gauges are last-write-wins;
// concurrent writers race by definition of the type.)
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Log2Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Log2Hist{},
	}
}

// Counter is a monotonically increasing count. Safe for concurrent use.
type Counter struct {
	name string
	n    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a last-value-wins measurement. Concurrent Sets are safe (no
// torn reads) but which value wins is unspecified.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set records v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last recorded value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// MergeHist adds a finished histogram's observations to the one
// registered under name, creating it on first use (an empty h still
// registers the name). Merging is integer addition under the registry
// lock, so the registry's state does not depend on the order in which
// runs finish. h is only read.
func (r *Registry) MergeHist(name string, h *Log2Hist) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rh, ok := r.hists[name]
	if !ok {
		rh = &Log2Hist{}
		r.hists[name] = rh
	}
	rh.Merge(h)
}

// WriteJSON writes the registry snapshot as a single JSON object with
// stable key order, suitable for the CLI's -metrics file.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	var b []byte
	b = append(b, `{"counters":{`...)
	for i, c := range s.Counters {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, c.Name)
		b = append(b, ':')
		b = strconv.AppendInt(b, c.Value, 10)
	}
	b = append(b, `},"gauges":{`...)
	for i, g := range s.Gauges {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, g.Name)
		b = append(b, ':')
		b = appendFloat(b, g.Value)
	}
	b = append(b, `},"histograms":{`...)
	for i, h := range s.Histograms {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, h.Name)
		b = append(b, `:{"count":`...)
		b = strconv.AppendInt(b, h.Count, 10)
		b = append(b, `,"sum":`...)
		b = strconv.AppendInt(b, h.Sum, 10)
		b = append(b, `,"min":`...)
		b = strconv.AppendInt(b, h.Min, 10)
		b = append(b, `,"max":`...)
		b = strconv.AppendInt(b, h.Max, 10)
		b = append(b, `,"buckets":[`...)
		for j, bk := range h.Buckets {
			if j > 0 {
				b = append(b, ',')
			}
			// One entry per occupied bucket; le is its inclusive upper
			// bound.
			b = append(b, `{"le":`...)
			b = strconv.AppendInt(b, bk.Hi, 10)
			b = append(b, `,"n":`...)
			b = strconv.AppendInt(b, bk.N, 10)
			b = append(b, '}')
		}
		b = append(b, `]}`...)
	}
	b = append(b, `}}`...)
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}

// appendFloat renders a float compactly, avoiding exponent noise for the
// integral values that dominate simulator metrics.
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
