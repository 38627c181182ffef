package perf

import (
	"path/filepath"
	"strings"
	"testing"
)

func mkBaseline(cases ...Case) *Baseline {
	return &Baseline{Schema: Schema, GoOS: "linux", GoArch: "amd64", Cases: cases}
}

func TestCompareDetectsRegressions(t *testing.T) {
	old := mkBaseline(
		Case{Name: "LRU", NsPerRef: 10, AllocsPerRef: 0, Faults: 100},
		Case{Name: "WS", NsPerRef: 20, AllocsPerRef: 0, Faults: 200},
		Case{Name: "GONE", NsPerRef: 5, Faults: 7},
	)
	cur := mkBaseline(
		Case{Name: "LRU", NsPerRef: 14, AllocsPerRef: 0, Faults: 100},  // +40% time
		Case{Name: "WS", NsPerRef: 21, AllocsPerRef: 0.5, Faults: 201}, // allocs + PF drift
		Case{Name: "NEW", NsPerRef: 3, Faults: 1},
	)
	report, regs := Compare(old, cur, 0.25)
	if len(regs) != 3 {
		t.Fatalf("want 3 regressions, got %d: %v", len(regs), regs)
	}
	wantFrags := []string{"LRU: ns/ref", "WS: allocs/ref", "WS: fault anchor drifted 200 -> 201"}
	for i, frag := range wantFrags {
		if !strings.Contains(regs[i], frag) {
			t.Fatalf("regression %d = %q, want fragment %q", i, regs[i], frag)
		}
	}
	for _, frag := range []string{"new case", "missing from current run", "delta"} {
		if !strings.Contains(report, frag) {
			t.Fatalf("report missing %q:\n%s", frag, report)
		}
	}
}

func TestCompareCleanRun(t *testing.T) {
	old := mkBaseline(Case{Name: "LRU", NsPerRef: 10, AllocsPerRef: 0, Faults: 100})
	cur := mkBaseline(Case{Name: "LRU", NsPerRef: 11, AllocsPerRef: 0, Faults: 100})
	if _, regs := Compare(old, cur, 0.25); len(regs) != 0 {
		t.Fatalf("clean +10%% run flagged: %v", regs)
	}
}

func TestCompareFlagsServeOverhead(t *testing.T) {
	old := mkBaseline(Case{Name: "LRU", NsPerRef: 10, AllocsPerRef: 0, Faults: 100})
	cur := mkBaseline(Case{Name: "LRU", NsPerRef: 10, AllocsPerRef: 0, Faults: 100})
	cur.ServeOverhead = ServeOverheadMax * 2
	report, regs := Compare(old, cur, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "serve-attached overhead") {
		t.Fatalf("want one serve-overhead regression, got %v", regs)
	}
	if !strings.Contains(report, "serve overhead") {
		t.Fatalf("report missing serve-overhead line:\n%s", report)
	}
	cur.ServeOverhead = ServeOverheadMax / 2
	if _, regs := Compare(old, cur, 0.25); len(regs) != 0 {
		t.Fatalf("in-budget overhead flagged: %v", regs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	b := mkBaseline(Case{Name: "LRU", Workload: "CONDUCT", Refs: 42, NsPerRef: 9.5, Faults: 3})
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cases) != 1 || got.Cases[0] != b.Cases[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	b := mkBaseline()
	b.Schema = Schema + 1
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestCollectQuick measures the real matrix once; it anchors that the
// hot path stays allocation-free and the fault counts are reproducible.
func TestCollectQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement windows are slow; skipped under -short")
	}
	b, err := Collect(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Cases) == 0 {
		t.Fatal("no cases measured")
	}
	for _, c := range b.Cases {
		if c.NsPerRef <= 0 || c.Refs <= 0 || c.Faults <= 0 {
			t.Fatalf("%s: implausible measurement %+v", c.Name, c)
		}
		if strings.HasPrefix(c.Name, "sweep_") {
			// Curve construction materializes its whole result (Fenwick
			// tree, interval histograms, per-allocation suffix sums), so it
			// allocates by design; the bound keeps it amortized per ref.
			if c.AllocsPerRef > 0.05 {
				t.Fatalf("%s: curve build allocates %.4f allocs/ref, want amortized < 0.05", c.Name, c.AllocsPerRef)
			}
			continue
		}
		if c.Name == "trace_build" {
			// Each iteration compiles the program and grows a fresh
			// trace's columns, so it allocates by design; the bound keeps
			// that amortized per built reference.
			if c.AllocsPerRef > 0.05 {
				t.Fatalf("%s: trace build allocates %.4f allocs/ref, want amortized < 0.05", c.Name, c.AllocsPerRef)
			}
			continue
		}
		if c.Name == "kernel_step" {
			// End-to-end case: each iteration derives the tenant
			// population and opens every tenant's stream and policy, so it
			// allocates by design — but the amortized rate must stay far
			// below one allocation per simulated reference.
			if c.AllocsPerRef > 0.5 {
				t.Fatalf("%s: kernel run allocates %.4f allocs/ref, want amortized < 0.5", c.Name, c.AllocsPerRef)
			}
			continue
		}
		if c.AllocsPerRef > 0.001 {
			t.Fatalf("%s: hot path allocates %.4f allocs/ref, want 0", c.Name, c.AllocsPerRef)
		}
	}
	// The overhead ratios are wall-clock measurements, too noisy for a
	// shared test machine; their ceilings are enforced by `cdmm bench
	// -compare` in CI instead. Keep the structural, allocation and anchor
	// checks here.
	t.Logf("overheads (not gated here): serve %+.2f%%, attr %+.2f%%, telemetry %+.2f%%",
		100*b.ServeOverhead, 100*b.AttrOverhead, 100*b.TelemetryOverhead)
	// A second collection must reproduce the fault anchors exactly.
	b2, err := Collect(true)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep speedups are wall-clock ratios too: zero them so only the
	// fault anchors are compared (their 5x floor stays enforced by `cdmm
	// bench -compare` in CI).
	for _, x := range []*Baseline{b, b2} {
		x.ServeOverhead, x.AttrOverhead, x.TelemetryOverhead = 0, 0, 0
		x.SweepSpeedupLRU, x.SweepSpeedupWS = 0, 0
	}
	if _, regs := Compare(b, b2, 10); len(regs) != 0 { // huge threshold: only anchors can fail
		t.Fatalf("fault anchors unstable: %v", regs)
	}
}

func TestCompareFlagsTelemetryOverhead(t *testing.T) {
	old := mkBaseline(Case{Name: "LRU", NsPerRef: 10, AllocsPerRef: 0, Faults: 100})
	cur := mkBaseline(Case{Name: "LRU", NsPerRef: 10, AllocsPerRef: 0, Faults: 100})
	cur.TelemetryOverhead = TelemetryOverheadMax * 2
	report, regs := Compare(old, cur, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "telemetry overhead") {
		t.Fatalf("want one telemetry-overhead regression, got %v", regs)
	}
	if !strings.Contains(report, "kernel telemetry overhead") {
		t.Fatalf("report missing telemetry-overhead line:\n%s", report)
	}
	cur.TelemetryOverhead = TelemetryOverheadMax / 2
	if _, regs := Compare(old, cur, 0.25); len(regs) != 0 {
		t.Fatalf("in-budget telemetry overhead flagged: %v", regs)
	}
}

func TestCompareFlagsAttrOverhead(t *testing.T) {
	old := mkBaseline(Case{Name: "LRU", NsPerRef: 10, AllocsPerRef: 0, Faults: 100})
	cur := mkBaseline(Case{Name: "LRU", NsPerRef: 10, AllocsPerRef: 0, Faults: 100})
	cur.AttrOverhead = AttrOverheadMax * 2
	report, regs := Compare(old, cur, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "side-band overhead") {
		t.Fatalf("want one attr-overhead regression, got %v", regs)
	}
	if !strings.Contains(report, "attr side-band overhead") {
		t.Fatalf("report missing attr-overhead line:\n%s", report)
	}
	cur.AttrOverhead = AttrOverheadMax / 2
	if _, regs := Compare(old, cur, 0.25); len(regs) != 0 {
		t.Fatalf("in-budget side-band overhead flagged: %v", regs)
	}
}
