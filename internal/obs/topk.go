package obs

import "slices"

// TopK is a space-saving heavy-hitter sketch over integer keys (tenant
// ids in the kernel). It tracks at most k entries in O(k) memory; Add is
// a map hit for tracked keys and an O(k) min-scan otherwise. The classic
// space-saving guarantees hold: any key whose true total exceeds N/k
// (N = sum of all increments) is present in the sketch, and for every
// entry the true total lies within [Count-Err, Count].
//
// Like Log2Hist, a TopK is NOT safe for concurrent use: one sketch per
// shard, merged at a barrier. All state is integral and every tie is
// broken deterministically (smallest count, then smallest key, evicts
// first), so sketches are byte-identical across runs at any parallelism.
type TopK struct {
	k       int
	slots   map[int]int // key -> index into entries
	entries []TopEntry
}

// TopEntry is one sketch entry: the key, its (over-)estimated total, and
// the maximum possible overestimate. True total ∈ [Count-Err, Count].
type TopEntry struct {
	Key   int   `json:"key"`
	Count int64 `json:"count"`
	Err   int64 `json:"err,omitempty"`
}

// NewTopK returns a sketch tracking at most k entries (k >= 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, slots: make(map[int]int, k)}
}

// Add credits inc (> 0) to key. If the sketch is full and key is
// untracked, the minimum entry is evicted space-saving style: the new
// entry inherits the evictee's count as its error bound.
func (t *TopK) Add(key int, inc int64) {
	if i, ok := t.slots[key]; ok {
		t.entries[i].Count += inc
		return
	}
	if len(t.entries) < t.k {
		t.slots[key] = len(t.entries)
		t.entries = append(t.entries, TopEntry{Key: key, Count: inc})
		return
	}
	m := 0
	for i := 1; i < len(t.entries); i++ {
		if e, min := t.entries[i], t.entries[m]; e.Count < min.Count || (e.Count == min.Count && e.Key < min.Key) {
			m = i
		}
	}
	old := t.entries[m]
	delete(t.slots, old.Key)
	t.slots[key] = m
	t.entries[m] = TopEntry{Key: key, Count: old.Count + inc, Err: old.Count}
}

// Entries returns the tracked entries ranked best-first: count
// descending, then error ascending (better-attested first), then key
// ascending. The returned slice is freshly allocated.
func (t *TopK) Entries() []TopEntry {
	out := append([]TopEntry(nil), t.entries...)
	rankEntries(out)
	return out
}

func rankEntries(es []TopEntry) {
	slices.SortFunc(es, func(a, b TopEntry) int {
		switch {
		case a.Count != b.Count:
			if a.Count > b.Count {
				return -1
			}
			return 1
		case a.Err != b.Err:
			if a.Err < b.Err {
				return -1
			}
			return 1
		case a.Key != b.Key:
			if a.Key < b.Key {
				return -1
			}
			return 1
		}
		return 0
	})
}

// Merge folds o into t by exact union: counts and error bounds for
// shared keys add (the bounds stay valid), then only the top k entries
// by rank are kept. When key spaces are disjoint — the kernel's shards
// partition tenants — the union is exact and the result is independent
// of which sketch absorbed which.
func (t *TopK) Merge(o *TopK) {
	if o == nil || len(o.entries) == 0 {
		return
	}
	for _, e := range o.entries {
		if i, ok := t.slots[e.Key]; ok {
			t.entries[i].Count += e.Count
			t.entries[i].Err += e.Err
		} else {
			t.slots[e.Key] = len(t.entries)
			t.entries = append(t.entries, e)
		}
	}
	if len(t.entries) > t.k {
		rankEntries(t.entries)
		for _, e := range t.entries[t.k:] {
			delete(t.slots, e.Key)
		}
		t.entries = t.entries[:t.k]
		for i, e := range t.entries {
			t.slots[e.Key] = i
		}
	}
}

// Clone returns an independent deep copy.
func (t *TopK) Clone() *TopK {
	c := &TopK{k: t.k, slots: make(map[int]int, len(t.slots)), entries: append([]TopEntry(nil), t.entries...)}
	for k, v := range t.slots {
		c.slots[k] = v
	}
	return c
}
