package obs

import (
	"math"
	"strings"
)

// Timeline buckets one run's event stream over virtual time: how many
// faults landed in each bucket, and the time-weighted mean space-time
// charge (resident pages) during each bucket. It is the data behind the
// CLI's `cdmm profile` sparklines and the report's timeline section.
type Timeline struct {
	Buckets int
	// Span is the run's total virtual time.
	Span int64
	// Faults is the per-bucket fault count.
	Faults []int
	// Resident is the per-bucket time-weighted mean charge in pages.
	Resident []float64
}

// NewTimeline builds a timeline with the given bucket count from a
// single-run event stream (KindFault and KindRes events, as emitted by
// the instrumented simulator).
func NewTimeline(events []Event, buckets int) *Timeline {
	if buckets < 1 {
		buckets = 1
	}
	var span int64
	for _, e := range events {
		if e.T > span {
			span = e.T
		}
	}
	// Never use more buckets than there are time units: a very short run
	// would otherwise scatter its few events over a mostly-empty strip
	// (and a single-unit run rendered one spike in a 64-wide void).
	if span > 0 && int64(buckets) > span {
		buckets = int(span)
	}
	tl := &Timeline{
		Buckets:  buckets,
		Span:     span,
		Faults:   make([]int, buckets),
		Resident: make([]float64, buckets),
	}
	if span == 0 {
		return tl
	}
	bw := float64(span) / float64(buckets)
	bucketOf := func(t int64) int {
		i := int(float64(t) / bw)
		if i >= buckets {
			i = buckets - 1
		}
		return i
	}
	// weight[i] accumulates ∫ charge dt over bucket i.
	weight := make([]float64, buckets)
	addSegment := func(t0, t1 int64, v float64) {
		if v == 0 || t1 <= t0 {
			return
		}
		for i := bucketOf(t0); i <= bucketOf(t1-1); i++ {
			lo := math.Max(float64(t0), float64(i)*bw)
			hi := math.Min(float64(t1), float64(i+1)*bw)
			if hi > lo {
				weight[i] += v * (hi - lo)
			}
		}
	}
	prevT := int64(0)
	cur := 0.0
	for _, e := range events {
		switch e.Kind {
		case KindFault:
			// A fault's T is the completion time of the faulting reference;
			// attribute it to the bucket where service began.
			tl.Faults[bucketOf(e.T-1)]++
		case KindRes:
			addSegment(prevT, e.T, cur)
			prevT, cur = e.T, float64(e.Res)
		}
	}
	addSegment(prevT, span, cur)
	for i := range tl.Resident {
		tl.Resident[i] = weight[i] / bw
	}
	return tl
}

// FaultsF returns the fault counts as floats, for Sparkline.
func (tl *Timeline) FaultsF() []float64 {
	out := make([]float64, len(tl.Faults))
	for i, n := range tl.Faults {
		out[i] = float64(n)
	}
	return out
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a fixed-width unicode bar strip scaled to
// the series maximum; exact zeros render as '·' so quiet stretches stand
// out from merely-low ones.
func Sparkline(vals []float64) string {
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		switch {
		case v <= 0 || max == 0:
			b.WriteRune('·')
		default:
			i := int(v / max * float64(len(sparkRunes)))
			if i >= len(sparkRunes) {
				i = len(sparkRunes) - 1
			}
			b.WriteRune(sparkRunes[i])
		}
	}
	return b.String()
}
