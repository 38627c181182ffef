package obs

import (
	"math"
	"strings"
	"testing"
)

// totalFaults sums the per-bucket fault counts.
func totalFaults(tl *Timeline) int {
	n := 0
	for _, f := range tl.Faults {
		n += f
	}
	return n
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 0, 0}); got != "···" {
		t.Errorf("all-zero sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 1, 4, 8})
	runes := []rune(got)
	if len(runes) != 4 {
		t.Fatalf("len = %d, want 4", len(runes))
	}
	if runes[0] != '·' {
		t.Errorf("zero cell = %q", runes[0])
	}
	if runes[3] != '█' {
		t.Errorf("max cell = %q, want full block", runes[3])
	}
}

func TestTimelineBucketsFaultsAndResidency(t *testing.T) {
	// Span 100, 10 buckets of width 10. Charge: 2 pages over [0,50),
	// 4 pages over [50,100). Faults at t=5 (bucket 0) and t=95 (bucket 9).
	events := []Event{
		{T: 0, Kind: KindRes, I: 1, Res: 2},
		{T: 5, Kind: KindFault, I: 2, Page: 1, Res: 2},
		{T: 50, Kind: KindRes, I: 10, Res: 4},
		{T: 95, Kind: KindFault, I: 20, Page: 2, Res: 4},
		{T: 100, Kind: KindEnd, Refs: 20, Faults: 2},
	}
	tl := NewTimeline(events, 10)
	if tl.Span != 100 {
		t.Fatalf("span = %d", tl.Span)
	}
	if tl.Faults[0] != 1 || tl.Faults[9] != 1 || totalFaults(tl) != 2 {
		t.Errorf("faults = %v", tl.Faults)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(tl.Resident[i]-2) > 1e-9 {
			t.Errorf("bucket %d resident = %g, want 2", i, tl.Resident[i])
		}
	}
	for i := 5; i < 10; i++ {
		if math.Abs(tl.Resident[i]-4) > 1e-9 {
			t.Errorf("bucket %d resident = %g, want 4", i, tl.Resident[i])
		}
	}
}

// TestTimelineShortRunClampsBuckets pins the short-run fix: a run whose
// virtual-time span is smaller than the requested bucket count gets one
// bucket per time unit, not a mostly-empty 64-wide strip with a single
// degenerate spike.
func TestTimelineShortRunClampsBuckets(t *testing.T) {
	// Span 3: three references, one fault.
	events := []Event{
		{T: 0, Kind: KindRes, I: 1, Res: 1},
		{T: 2, Kind: KindFault, I: 2, Page: 1, Res: 1},
		{T: 3, Kind: KindEnd, Refs: 3, Faults: 1},
	}
	tl := NewTimeline(events, 64)
	if tl.Buckets != 3 {
		t.Fatalf("buckets = %d, want clamped to span 3", tl.Buckets)
	}
	if len(tl.Faults) != 3 || len(tl.Resident) != 3 {
		t.Fatalf("series lengths = %d/%d, want 3/3", len(tl.Faults), len(tl.Resident))
	}
	if totalFaults(tl) != 1 {
		t.Errorf("total faults = %d, want 1", totalFaults(tl))
	}
	if got := len([]rune(Sparkline(tl.FaultsF()))); got != 3 {
		t.Errorf("sparkline width = %d, want 3", got)
	}
	// A single-time-unit run collapses to one bucket holding everything.
	one := NewTimeline([]Event{
		{T: 0, Kind: KindRes, I: 1, Res: 1},
		{T: 1, Kind: KindEnd, Refs: 1},
	}, 64)
	if one.Buckets != 1 {
		t.Errorf("single-unit run buckets = %d, want 1", one.Buckets)
	}
	// Requests below the span are honored unchanged.
	if tl := NewTimeline(events, 2); tl.Buckets != 2 {
		t.Errorf("small request clamped: %d buckets, want 2", tl.Buckets)
	}
}

func TestTimelineEmpty(t *testing.T) {
	tl := NewTimeline(nil, 8)
	if tl.Span != 0 || totalFaults(tl) != 0 {
		t.Errorf("empty timeline = %+v", tl)
	}
	if s := Sparkline(tl.FaultsF()); s != strings.Repeat("·", 8) {
		t.Errorf("empty sparkline = %q", s)
	}
}
