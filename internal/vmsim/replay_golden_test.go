package vmsim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdmm/internal/attr"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// TestReplayGolden pins every replay path's output on the nine built-in
// workloads: the fast-path Result of each policy, the observed JSONL
// event stream and metrics snapshot (by digest), and the attributed
// run's Chrome trace export (by digest). Any change to fault decisions,
// charging, event emission or attribution shows up here. Regenerate
// intentionally with:
//
//	go test ./internal/vmsim -run ReplayGolden -update
func TestReplayGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range workloads.All() {
		c, tr := compiled(t, p.Name)
		sel := p.DefaultSet().Selector()
		v := c.V()
		fmt.Fprintf(&b, "== %s ==\n", p.Name)
		for _, pol := range []policy.Policy{
			policy.NewLRU(v/2 + 1),
			policy.NewFIFO(v/3 + 1),
			policy.NewWS(200),
			policy.NewDWS(150, 10),
			policy.NewPFF(100),
			policy.NewSWS(200),
			policy.NewVSWS(50, 400, 4),
			policy.NewOPT(tr.Pages(), v/2+1),
			policy.NewCD(sel, 2),
		} {
			// Print the raw fields, not Result.String, so every index is pinned.
			type fields Result
			fmt.Fprintf(&b, "%+v\n", fields(Run(tr, pol)))
		}
		for _, pc := range []struct {
			name string
			pol  policy.Policy
		}{
			{"CD", policy.NewCD(sel, 2)},
			{"LRU", policy.NewLRU(v/2 + 1)},
			{"WS", policy.NewWS(200)},
		} {
			events := sha256.New()
			sink := obs.NewJSONLSink(events)
			reg := obs.NewRegistry()
			RunObserved(tr, pc.pol, &obs.Observer{Tracer: sink, Metrics: reg})
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			metrics := sha256.New()
			if err := reg.WriteJSON(metrics); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "observed %s: events sha256=%x metrics sha256=%x\n", pc.name, events.Sum(nil), metrics.Sum(nil))
		}
		_, led := RunAttributed(tr, policy.NewCD(sel, 2), nil)
		chrome := sha256.New()
		if err := attr.WriteChromeTrace(chrome, led); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "attributed CD: chrome sha256=%x\n", chrome.Sum(nil))
	}
	got := b.String()

	path := filepath.Join("testdata", "replay.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("replay outputs changed; diff against %s:\n--- got ---\n%s", path, got)
	}
}
