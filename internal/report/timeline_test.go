package report

import (
	"strings"
	"testing"

	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/workloads"
)

func TestTimelineReport(t *testing.T) {
	w, err := workloads.Get("HWSCRT")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.CompileSource(w.Name, w.Source)
	if err != nil {
		t.Fatal(err)
	}
	out, err := TimelineReport(engine.New(0), p, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Fault timeline (32 virtual-time buckets per policy)",
		"CD L", "LRU m=", "WS tau=",
		"PF=", "MEM=", "peak=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline report missing %q\n%s", want, out)
		}
	}
	// Three rows in each of the two strips.
	if n := strings.Count(out, "PF="); n != 3 {
		t.Errorf("fault strip has %d rows, want 3", n)
	}
	if n := strings.Count(out, "MEM="); n != 3 {
		t.Errorf("residency strip has %d rows, want 3", n)
	}
}
