package report

import (
	"strings"
	"testing"

	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/workloads"
)

// TestTimelineReport: the report ends with the fault timeline, three
// rows per strip at 64 buckets: CD at its least-space-time stratum and
// the two tuned baselines of the policy comparison above it.
func TestTimelineReport(t *testing.T) {
	w, err := workloads.Get("HWSCRT")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.CompileSource(w.Name, w.Source)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(p, engine.New(0))
	if err != nil {
		t.Fatal(err)
	}
	_, tl, ok := strings.Cut(out, "\n## Fault timeline (64 virtual-time buckets per policy)\n")
	if !ok {
		t.Fatalf("report has no 64-bucket fault timeline:\n%s", out)
	}
	for _, want := range []string{
		"CD L2        ", "LRU m=69     ", "WS tau=410   ",
		"| CD level 2 | 900 |", "| best LRU (m=69) |", "| best WS (τ=410) |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Three rows in each of the two strips, each strip 64 buckets wide.
	for _, field := range []string{"PF=", "MEM="} {
		var rows int
		for _, line := range strings.Split(tl, "\n") {
			// A row is a 12-column label, a space, the strip, and two
			// spaces before its totals.
			if row, _, ok := strings.Cut(line, "  "+field); ok {
				rows++
				if strip := []rune(row[13:]); len(strip) != 64 {
					t.Errorf("%s strip %q has %d buckets, want 64", field, row, len(strip))
				}
			}
		}
		if rows != 3 {
			t.Errorf("%s strip has %d rows, want 3:\n%s", field, rows, tl)
		}
	}
}
