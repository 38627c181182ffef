package explain_test

import (
	"strings"
	"testing"

	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/explain"
	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

// TestTable2HotspotRanking is the acceptance check for the attribution
// plane: on every Table 2 workload, explain must rank a real source loop
// nest first — the hotspot is a named DO-nest statement site, never the
// unattributed bucket and never a directive insertion point — and the
// rendered table must lead with it.
func TestTable2HotspotRanking(t *testing.T) {
	for _, v := range experiments.Table2Variants {
		v := v
		t.Run(v.Program+"/"+v.Set, func(t *testing.T) {
			t.Parallel()
			p, err := workloads.Get(v.Program)
			if err != nil {
				t.Fatal(err)
			}
			set, ok := p.Set(v.Set)
			if !ok {
				t.Fatalf("no set %q", v.Set)
			}
			tr := compiledTrace(t, p.Name)
			rep, err := explain.Analyze(engine.New(1), tr, explain.Options{Selector: set.Selector()})
			if err != nil {
				t.Fatal(err)
			}
			hs := rep.CD.Hotspot()
			if hs == nil {
				t.Fatal("no hotspot on a faulting run")
			}
			if hs.ID == trace.NoSite {
				t.Fatal("hotspot is the unattributed bucket")
			}
			if !strings.Contains(hs.Site.Nest, "DO") {
				t.Errorf("hotspot nest %q is not a DO loop", hs.Site.Nest)
			}
			if hs.Site.Expr == "" || strings.Contains(hs.Site.Expr, "ALLOCATE") ||
				strings.Contains(hs.Site.Expr, "LOCK") {
				t.Errorf("hotspot %q is not an array-reference statement", hs.Name())
			}

			// The ranking must be a proper fault ordering with the hotspot
			// first.
			ranked := rep.CD.Rank()
			if len(ranked) == 0 || ranked[0] != hs {
				t.Fatal("Rank()[0] is not the hotspot")
			}
			for i := 1; i < len(ranked); i++ {
				if ranked[i].Faults > ranked[i-1].Faults {
					t.Fatalf("ranking not ordered at %d: %d > %d",
						i, ranked[i].Faults, ranked[i-1].Faults)
				}
			}

			// The rendered table's first row names the hotspot.
			out := explain.Render(rep, 5)
			first := ""
			lines := strings.Split(out, "\n")
			for i, l := range lines {
				if strings.Contains(l, "fault hotspots") && i+2 < len(lines) {
					first = lines[i+2]
					break
				}
			}
			if first == "" {
				t.Fatalf("no hotspot table in output:\n%s", out)
			}
			name := hs.Name()
			if len(name) > 20 {
				name = name[:20]
			}
			if !strings.Contains(first, name) {
				t.Errorf("first hotspot row %q does not name %q", first, hs.Name())
			}
		})
	}
}

// TestAnalyzeRequiresSites pins the contract: a trace without the
// side-band is rejected rather than silently unattributed.
func TestAnalyzeRequiresSites(t *testing.T) {
	tr := compiledTrace(t, "MAIN")
	eng := engine.New(1)
	if _, err := explain.Analyze(eng, tr.WithoutSites(), explain.Options{}); err == nil {
		t.Fatal("siteless trace accepted")
	}
	rep, err := explain.Analyze(eng, tr, explain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CDRes.Faults != rep.CD.Faults {
		t.Errorf("result/ledger fault mismatch: %d vs %d", rep.CDRes.Faults, rep.CD.Faults)
	}
}

// compiledTrace returns the named workload's trace from the shared
// compile cache.
func compiledTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	c, err := workloads.Compile(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
