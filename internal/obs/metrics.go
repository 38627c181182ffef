package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds a run's named metrics. Registration (Counter, Gauge,
// Histogram) returns a stable handle that the hot path updates without
// any map lookup or allocation. The registry and every handle it returns
// are safe for concurrent use: the experiment engine shares one registry
// across parallel simulation runs, so counter and histogram updates are
// atomic and sum exactly regardless of interleaving. (Gauges are
// last-write-wins; concurrent writers race by definition of the type.)
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
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

// atomicFloat accumulates float64 values with compare-and-swap.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// minTo lowers the stored value to v if v is smaller.
func (f *atomicFloat) minTo(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// maxTo raises the stored value to v if v is larger.
func (f *atomicFloat) maxTo(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution. Bucket i counts observations
// v with bounds[i-1] < v <= bounds[i]; one overflow bucket counts
// v > bounds[len-1]. Observe is allocation-free and safe for concurrent
// use: bucket counts and the sum are atomic, so totals are exact however
// observations interleave. (The float sum may differ in the last bits
// across runs at different parallelism, since float addition is not
// associative.)
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds (inclusive)
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
	min    atomicFloat // +Inf until the first observation
	max    atomicFloat // -Inf until the first observation
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.minTo(v)
	h.max.maxTo(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.load()
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.load()
}

// Bucket returns the upper bound (math.Inf(1) for the overflow bucket)
// and count of bucket i.
func (h *Histogram) Bucket(i int) (float64, int64) {
	if i == len(h.bounds) {
		return math.Inf(1), h.counts[i].Load()
	}
	return h.bounds[i], h.counts[i].Load()
}

// NumBuckets returns the bucket count including the overflow bucket.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

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

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket bounds on first use (later calls reuse the
// original bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{name: name, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.min.bits.Store(math.Float64bits(math.Inf(1)))
	h.max.bits.Store(math.Float64bits(math.Inf(-1)))
	r.hists[name] = h
	return h
}

// ExpBounds builds n exponentially growing bucket bounds starting at
// start and multiplying by factor: start, start*factor, ...
func ExpBounds(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBounds builds n bounds start, start+step, ...
func LinearBounds(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
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
		b = appendFloat(b, h.Sum)
		b = append(b, `,"min":`...)
		b = appendFloat(b, h.Min)
		b = append(b, `,"max":`...)
		b = appendFloat(b, h.Max)
		b = append(b, `,"buckets":[`...)
		for j, bk := range h.Buckets {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"le":`...)
			if bk.Infinite() {
				b = append(b, `"+Inf"`...)
			} else {
				b = appendFloat(b, bk.LE)
			}
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
