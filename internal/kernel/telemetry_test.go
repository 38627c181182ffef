package kernel

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cdmm/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// chaosTelemetryConfig is the shared fixture: chaotic enough to exercise
// every instrumented path (kills, suspends, waves, degrades).
func chaosTelemetryConfig(tenants int) Config {
	cfg := testConfig(tenants)
	cfg.Shards = 4
	cfg.Overcommit = 8
	cfg.Chaos = Chaos{Kill: true, Oscillate: true, Corrupt: true, Intensity: 1}
	cfg.Telemetry = true
	return cfg
}

// stripTelemetry clears the telemetry-plane outputs from a copy of res,
// leaving only the fields a telemetry-off run produces.
func stripTelemetry(res *Result) *Result {
	c := *res
	c.Telemetry = nil
	c.Incidents = nil
	c.IncidentsDropped = 0
	return &c
}

// TestTelemetryDoesNotPerturbResults is the observer-effect check: the
// same configuration with the plane on and off must produce identical
// scheduling, accounting and rendered summaries — telemetry observes
// the kernel, it never steers it.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	off := chaosTelemetryConfig(96)
	off.Telemetry = false
	on := chaosTelemetryConfig(96)
	a := mustRun(t, off, engine.New(4))
	b := mustRun(t, on, engine.New(4))
	if b.Telemetry == nil {
		t.Fatal("telemetry on but Result.Telemetry is nil")
	}
	if a.String() != b.String() {
		t.Fatalf("summaries differ with telemetry on:\n%s\nvs\n%s", a, b)
	}
	if !reflect.DeepEqual(a, stripTelemetry(b)) {
		t.Fatal("core results differ with telemetry on")
	}
}

// TestTelemetryDeterministicAcrossWorkers extends the -j determinism
// guarantee to the whole plane: histograms and incident dumps must be
// byte-identical at any worker count.
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	cfg := chaosTelemetryConfig(96)
	a := mustRun(t, cfg, engine.New(1))
	b := mustRun(t, cfg, engine.New(4))
	c := mustRun(t, cfg, engine.New(16))
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(b, c) {
		t.Fatal("results differ across -j with telemetry on")
	}
	aj, _ := json.Marshal(a.Telemetry)
	cj, _ := json.Marshal(c.Telemetry)
	if !bytes.Equal(aj, cj) {
		t.Fatalf("telemetry JSON differs across -j:\n%s\nvs\n%s", aj, cj)
	}
}

// TestTelemetryContent cross-checks the plane against the kernel's own
// accounting: every admission is timed, resumes match the suspension
// histogram, and every pressure wave records its yield.
func TestTelemetryContent(t *testing.T) {
	cfg := chaosTelemetryConfig(96)
	res := mustRun(t, cfg, engine.New(4))
	ts := res.Telemetry

	aw := ts.Hist("admit_wait")
	if aw.Count != res.Admitted {
		t.Errorf("admit_wait n=%d, admitted=%d", aw.Count, res.Admitted)
	}
	if sd := ts.Hist("suspend_duration"); sd.Count != res.Resumes {
		t.Errorf("suspend_duration n=%d, resumes=%d", sd.Count, res.Resumes)
	}
	if ry := ts.Hist("reclaim_yield"); ry.Count != res.ReclaimWaves {
		t.Errorf("reclaim_yield n=%d, waves=%d", ry.Count, res.ReclaimWaves)
	}
	if fl := ts.Hist("fault_latency"); fl.Count == 0 || fl.Min <= 0 {
		t.Errorf("fault_latency degenerate: n=%d min=%d", fl.Count, fl.Min)
	}
}

// TestTelemetryStoreLiveAndFinal drives the publication path directly:
// after a run with Publish set, the store serves the final view, and the
// view matches the result's own snapshot.
func TestTelemetryStoreLiveAndFinal(t *testing.T) {
	store := NewTelemetryStore()
	if store.Len() != 0 || store.Snapshot() != nil {
		t.Fatal("fresh store not empty")
	}
	cfg := chaosTelemetryConfig(96)
	cfg.Publish = store
	res := mustRun(t, cfg, engine.New(4))
	if store.Len() != 1 {
		t.Fatalf("store Len=%d after run", store.Len())
	}
	v := store.Snapshot()
	if v == nil || !v.Final {
		t.Fatalf("store view not final: %+v", v)
	}
	if !reflect.DeepEqual(v.Telemetry, res.Telemetry) {
		t.Fatal("published view differs from the run's snapshot")
	}
	if v.Incidents != len(res.Incidents) {
		t.Errorf("view incidents=%d, result has %d", v.Incidents, len(res.Incidents))
	}
}

// TestChaosMatrixIncidents extends the chaos matrix to the flight
// recorder: kills and degrades must each capture bounded incident dumps
// whose header matches the trigger and whose rings hold real events.
func TestChaosMatrixIncidents(t *testing.T) {
	for _, c := range []Chaos{{Kill: true}, {Corrupt: true}, {Kill: true, Corrupt: true}} {
		c.Intensity = 1
		cfg := testConfig(96)
		cfg.Shards = 4
		cfg.Chaos = c
		cfg.Telemetry = true
		res := mustRun(t, cfg, engine.New(4))
		if len(res.Violations) != 0 {
			t.Fatalf("chaos %+v: violations: %v", c, res.Violations)
		}
		if c.Kill && res.Kills > 0 && len(res.Incidents) == 0 {
			t.Errorf("chaos %+v: %d kills but no incidents", c, res.Kills)
		}
		if c.Corrupt && res.Degraded > 0 && len(res.Incidents) == 0 {
			t.Errorf("chaos %+v: %d degrades but no incidents", c, res.Degraded)
		}
		if max := cfg.Shards * maxIncidents; len(res.Incidents) > max {
			t.Errorf("chaos %+v: %d incidents exceed the %d cap", c, len(res.Incidents), max)
		}
		for i := range res.Incidents {
			in := &res.Incidents[i]
			switch in.Trigger {
			case "kill", "degrade":
			default:
				t.Errorf("chaos %+v: unexpected trigger %q", c, in.Trigger)
			}
			if len(in.Events) == 0 {
				t.Errorf("chaos %+v: incident %s has an empty ring", c, in.Filename())
			}
			if in.Events[len(in.Events)-1].T > in.Clock {
				t.Errorf("chaos %+v: incident %s has events after capture", c, in.Filename())
			}
		}
	}
}

// TestTripIncidentGolden pins the incident dump bytes for a fixed seed:
// the trip fault fires one synthetic violation per shard, and each
// shard's JSONL report must be byte-identical run over run — the
// regression test for the whole flight-recorder path. Regenerate with
// go test ./internal/kernel -run TripIncidentGolden -update.
func TestTripIncidentGolden(t *testing.T) {
	cfg := testConfig(64)
	cfg.Shards = 2
	cfg.Chaos = Chaos{Trip: true}
	cfg.Telemetry = true
	res := mustRun(t, cfg, engine.New(4))
	if len(res.Violations) != cfg.Shards {
		t.Fatalf("trip produced %d violations, want one per shard (%d)", len(res.Violations), cfg.Shards)
	}
	if len(res.Incidents) != cfg.Shards {
		t.Fatalf("trip produced %d incidents, want %d", len(res.Incidents), cfg.Shards)
	}
	var dump bytes.Buffer
	for i := range res.Incidents {
		in := &res.Incidents[i]
		if in.Trigger != "violation" {
			t.Fatalf("incident %d trigger %q, want violation", i, in.Trigger)
		}
		dump.WriteString("== " + in.Filename() + "\n")
		if err := in.WriteJSONL(&dump); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", "incident_trip.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, dump.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(dump.Bytes(), want) {
		t.Errorf("incident dump drifted from golden:\n%s\nwant:\n%s", dump.Bytes(), want)
	}
}

// fullChaosConfig is the CI determinism population, `cdmm kernel
// -tenants 2000 -chaos all` at its defaults, for the given pool.
func fullChaosConfig(pool string) Config {
	return Config{
		Tenants:    2000,
		Overcommit: 4,
		Seed:       1,
		Pool:       pool,
		Level:      2,
		Quantum:    512,
		Checked:    true,
		Chaos:      Chaos{Kill: true, Oscillate: true, Corrupt: true, Intensity: 0.4},
	}
}

// TestFullChaosGolden pins the rendered result of the CI determinism
// population — `cdmm kernel -tenants 2000 -chaos all` at its defaults —
// for each pool, so changes to tenant synthesis, perturbation or
// stepping that move a single count show up here: the cd pool gates CD
// stepping and the lock paths, lru the fixed-partition stepping, ws the
// WS stepping and its page tables. Regenerate with
// go test ./internal/kernel -run FullChaosGolden -update.
func TestFullChaosGolden(t *testing.T) {
	for _, tc := range []struct{ pool, golden string }{
		{"cd", "chaos_2000.golden"},
		{"lru", "chaos_2000_lru.golden"},
		{"ws", "chaos_2000_ws.golden"},
	} {
		t.Run(tc.pool, func(t *testing.T) {
			got := mustRun(t, fullChaosConfig(tc.pool), engine.New(2)).String() + "\n"
			golden := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("kernel result drifted from golden:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
