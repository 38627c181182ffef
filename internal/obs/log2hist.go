package obs

import (
	"math"
	"math/bits"
	"strconv"
)

// Log2Hist is a fixed-size histogram of non-negative int64 values with
// power-of-two buckets: bucket 0 counts v <= 0, bucket i (i >= 1) counts
// 2^(i-1) <= v <= 2^i - 1. The bucket index is one bits.Len64 — no bound
// scan, no floats — which makes Observe cheap enough for a simulator hot
// loop, and because every field is an integer the histogram is exactly
// mergeable: merging shard-local histograms in a fixed order yields the
// same bytes at any worker count.
//
// Log2Hist is deliberately NOT safe for concurrent use: the intended
// discipline is one histogram per shard or run, owned by its goroutine,
// merged at a barrier (Registry.MergeHist). That keeps atomics (and
// their cross-core traffic) out of the hot loop entirely.
type Log2Hist struct {
	counts [log2Buckets]int64
	count  int64
	sum    int64
	min    int64 // valid only when count > 0
	max    int64 // valid only when count > 0
}

// log2Buckets covers bucket 0 (v <= 0) plus bits.Len64 outputs 1..64.
const log2Buckets = 65

// log2Index returns the bucket index for v.
func log2Index(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Log2BucketBounds returns the inclusive [lo, hi] value range of bucket i.
func Log2BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 0
	}
	if i >= 64 {
		// 2^63 is not representable in int64; the bucket is unreachable
		// for int64 observations but keep the bounds well-formed.
		return math.MaxInt64, math.MaxInt64
	}
	if i == 63 {
		return 1 << 62, math.MaxInt64
	}
	return 1 << (i - 1), 1<<i - 1
}

// Observe records one value.
func (h *Log2Hist) Observe(v int64) {
	h.counts[log2Index(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Min returns the smallest observation, or 0 when empty.
func (h *Log2Hist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 when empty.
func (h *Log2Hist) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Merge adds o's observations into h. Because every field is an integer,
// merging is exact and commutative: any merge order over the same set of
// histograms produces identical state.
func (h *Log2Hist) Merge(o *Log2Hist) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	for i, n := range o.counts {
		h.counts[i] += n
	}
	h.count += o.count
	h.sum += o.sum
}

// Quantile returns the inclusive value bounds [lo, hi] of the bucket
// containing the q-quantile (0 < q <= 1) by observation rank. The true
// quantile is guaranteed to lie within the returned bounds — an exact
// error bar, not an estimate — and the bounds are at worst a factor of
// two apart. Returns (0, 0) when empty.
func (h *Log2Hist) Quantile(q float64) (lo, hi int64) {
	if h.count == 0 {
		return 0, 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, n := range h.counts {
		cum += n
		if cum >= rank {
			lo, hi = Log2BucketBounds(i)
			// Tighten with the exact extremes: no observation lies
			// outside [min, max], so neither does any quantile.
			if h.min > lo {
				lo = h.min
			}
			if h.max < hi {
				hi = h.max
			}
			return lo, hi
		}
	}
	return h.min, h.max // unreachable: cum reaches count
}

// Snapshot returns the histogram's current state with only the occupied
// buckets, suitable for JSON export.
func (h *Log2Hist) Snapshot() Log2Snapshot {
	var s Log2Snapshot
	h.snapshotInto(&s)
	return s
}

// snapshotInto refills s, reusing its bucket slice.
func (h *Log2Hist) snapshotInto(s *Log2Snapshot) {
	*s = Log2Snapshot{Count: h.count, Sum: h.sum, Min: h.Min(), Max: h.Max(), Buckets: s.Buckets[:0]}
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		lo, hi := Log2BucketBounds(i)
		s.Buckets = append(s.Buckets, Log2Bucket{Idx: i, Lo: lo, Hi: hi, N: n})
	}
}

// Log2Bucket is one occupied bucket of a Log2Snapshot: its index, its
// inclusive value bounds and its (non-cumulative) count.
type Log2Bucket struct {
	Idx int   `json:"idx"`
	Lo  int64 `json:"lo"`
	Hi  int64 `json:"hi"`
	N   int64 `json:"n"`
}

// Log2Snapshot is a point-in-time copy of a Log2Hist with sparse buckets
// (only occupied ones, in ascending index order).
type Log2Snapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Buckets []Log2Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observation, or 0 when empty.
func (s Log2Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// AppendProm renders the snapshot as a Prometheus histogram under the
// given (already namespaced and sanitized) metric name: cumulative
// `_bucket{le="..."}` series for every occupied bucket plus the
// mandatory +Inf bucket, then `_sum` and `_count`. Log2 buckets use
// their inclusive integer upper bound as the `le` value, which is exact
// for integer observations.
func (s Log2Snapshot) AppendProm(b []byte, name, help string) []byte {
	b = append(b, `# HELP `...)
	b = append(b, name...)
	b = append(b, ' ')
	b = appendPromHelp(b, help)
	b = append(b, '\n')
	b = append(b, `# TYPE `...)
	b = append(b, name...)
	b = append(b, ` histogram`...)
	b = append(b, '\n')
	return appendPromSeries(b, name, &s)
}

// appendPromSeries is AppendProm without the comment lines: the
// `_bucket`, `_sum` and `_count` series under name, which the registry
// scrape passes as the bytes it sanitized so it allocates nothing.
func appendPromSeries[N string | []byte](b []byte, name N, s *Log2Snapshot) []byte {
	var cum int64
	for _, bk := range s.Buckets {
		cum += bk.N
		b = append(b, name...)
		b = append(b, `_bucket{le="`...)
		b = strconv.AppendInt(b, bk.Hi, 10)
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, name...)
	b = append(b, `_bucket{le="+Inf"} `...)
	b = strconv.AppendInt(b, s.Count, 10)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, `_sum `...)
	b = strconv.AppendInt(b, s.Sum, 10)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, `_count `...)
	b = strconv.AppendInt(b, s.Count, 10)
	b = append(b, '\n')
	return b
}
