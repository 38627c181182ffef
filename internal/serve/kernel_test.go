package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"cdmm/internal/engine"
	"cdmm/internal/kernel"
)

// runPublishedKernel runs a small chaotic kernel publishing into the
// server's telemetry store and returns the result.
func runPublishedKernel(t *testing.T, s *Server) *kernel.Result {
	t.Helper()
	cfg := kernel.Config{
		Tenants: 48,
		Seed:    1,
		Scale:   0.25,
		Checked: true,
		Chaos:   kernel.Chaos{Kill: true, Intensity: 1},
		Publish: s.Kernel(),
	}
	res, err := kernel.Run(cfg, engine.New(2))
	if err != nil {
		t.Fatalf("kernel.Run: %v", err)
	}
	return res
}

// TestKernelScrapeGatedWhileEmpty pins the gating: a server whose
// kernels never publish serves scrapes with no cdmm_kernel_* series at
// all — byte-identical to a pre-kernel server.
func TestKernelScrapeGatedWhileEmpty(t *testing.T) {
	s := startExplainServer(t)
	_, body := getURL(t, s.URL()+"/metrics")
	if strings.Contains(string(body), "kernel_") {
		t.Errorf("empty store leaked kernel series into the scrape:\n%s", body)
	}
	var buf bytes.Buffer
	s.writeKernelMetrics(&buf)
	if buf.Len() != 0 {
		t.Errorf("writeKernelMetrics wrote %d bytes for an empty store", buf.Len())
	}
	code, body := getURL(t, s.URL()+"/kernel")
	if code != http.StatusOK || !strings.Contains(string(body), `"active": false`) {
		t.Errorf("GET /kernel on empty store = %d %s", code, body)
	}
}

// TestKernelEndpointAndScrape runs a kernel publishing into the server,
// then checks /kernel serves the final merged view and /metrics carries
// well-formed cdmm_kernel_* histogram, heavy-hitter and SLO series whose
// values match the run's own telemetry snapshot.
func TestKernelEndpointAndScrape(t *testing.T) {
	s := startExplainServer(t)
	res := runPublishedKernel(t, s)
	if res.Telemetry == nil {
		t.Fatal("Publish set but Result.Telemetry is nil")
	}

	code, body := getURL(t, s.URL()+"/kernel")
	if code != http.StatusOK {
		t.Fatalf("GET /kernel = %d", code)
	}
	var view kernel.TelemetryView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("/kernel not JSON: %v", err)
	}
	if !view.Final {
		t.Errorf("view not final after run completed: %s", body)
	}
	if view.Telemetry == nil || len(view.Telemetry.Hists) != 5 {
		t.Fatalf("view missing histograms: %s", body)
	}
	if fl := view.Telemetry.Hist("fault_latency"); fl == nil || fl.Count == 0 {
		t.Errorf("fault_latency empty in /kernel view")
	}

	_, mbody := getURL(t, s.URL()+"/metrics")
	vals := checkPromBody(t, string(mbody))
	fl := res.Telemetry.Hist("fault_latency")
	if got := vals["cdmm_kernel_fault_latency_count"]; got != float64(fl.Count) {
		t.Errorf("scraped fault_latency_count = %v, run recorded %d", got, fl.Count)
	}
	if got := vals["cdmm_kernel_fault_latency_sum"]; got != float64(fl.Sum) {
		t.Errorf("scraped fault_latency_sum = %v, run recorded %d", got, fl.Sum)
	}
	text := string(mbody)
	for _, want := range []string{
		`cdmm_kernel_fault_latency_bucket{le="+Inf"}`,
		`cdmm_kernel_admit_wait_count`,
		`cdmm_kernel_suspend_duration_bucket`,
		`cdmm_kernel_top_faults{tenant="t0`,
		`cdmm_kernel_slo_good{slo="admission_wait"}`,
		`cdmm_kernel_slo_burn_rate{slo="fault_rate"}`,
		`cdmm_kernel_run_final`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The top-faults gauge for the biggest faulter matches the table.
	top := res.Telemetry.Table("faults").Entries[0]
	series := fmt.Sprintf("cdmm_kernel_top_faults{tenant=%q}", top.Tenant)
	if got := vals[series]; got != float64(top.Count) {
		t.Errorf("%s = %v, table says %d", series, got, top.Count)
	}
}

// TestMetricsRenderAllocFlat pins the pooled scrape path: per-scrape
// allocations must not scale with registry size. The serve section has
// a small fixed cost (a progress snapshot and Fprintf operand boxing);
// the registry section — the part that grows with the simulation — goes
// through the pooled snapshot and buffers and must add nothing.
func TestMetricsRenderAllocFlat(t *testing.T) {
	measure := func(metrics int) float64 {
		s := New(Options{})
		for i := 0; i < metrics; i++ {
			s.opt.Registry.Counter(fmt.Sprintf("load.metric-%03d", i)).Add(int64(i) * 977)
		}
		s.renderMetrics(&s.scrapeBuf) // warm up pooled snapshot and buffers
		return testing.AllocsPerRun(50, func() {
			s.renderMetrics(&s.scrapeBuf)
		})
	}
	empty, loaded := measure(0), measure(300)
	if loaded > empty {
		t.Errorf("renderMetrics allocates %.0f per scrape with 300 metrics vs %.0f with none; registry section is not pooled", loaded, empty)
	}
	if empty > 32 {
		t.Errorf("fixed scrape cost is %.0f allocations per hit; expected a small constant", empty)
	}
}
