package obs

import (
	"bytes"
	"testing"
)

// TestSnapshotIntoAllocFlat pins the pooled-scrape contract: once a
// reused Snapshot and output buffer have grown to size, refilling and
// re-rendering them allocates nothing, so a tight scrape loop is
// allocation-flat no matter how long it runs.
func TestSnapshotIntoAllocFlat(t *testing.T) {
	r := promRegistry()
	var s Snapshot
	var b []byte
	// Warm up capacities.
	r.SnapshotInto(&s)
	b = s.AppendPrometheus(b[:0], "cdmm")
	allocs := testing.AllocsPerRun(100, func() {
		r.SnapshotInto(&s)
		b = s.AppendPrometheus(b[:0], "cdmm")
	})
	if allocs != 0 {
		t.Errorf("scrape loop allocates %v objects per snapshot, want 0", allocs)
	}
}

// TestSnapshotIntoMatchesSnapshot: the pooled path must render the same
// bytes as the allocating one, including after the registry grows.
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	r := promRegistry()
	var s Snapshot
	for round := 0; round < 3; round++ {
		r.SnapshotInto(&s)
		got := s.AppendPrometheus(nil, "cdmm")
		want := promText(r)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: pooled scrape differs from fresh scrape\n--- pooled ---\n%s\n--- fresh ---\n%s", round, got, want)
		}
		// Grow the registry between rounds: reuse must stay correct
		// when sections change size and sort order.
		r.Counter("aaa_first").Add(int64(round))
		mergeValues(r, "zz_tail", int64(round), 100)
	}
}
