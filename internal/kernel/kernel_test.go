package kernel

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cdmm/internal/directive"
	"cdmm/internal/engine"
)

// testConfig is the base chaos-free checked configuration the tests
// perturb.
func testConfig(tenants int) Config {
	return Config{
		Tenants: tenants,
		Seed:    1,
		Scale:   0.25,
		Checked: true,
	}
}

func mustRun(t *testing.T, cfg Config, eng *engine.Engine) *Result {
	t.Helper()
	res, err := Run(cfg, eng)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSynthSpecDeterministicAndValid(t *testing.T) {
	for id := 0; id < 50; id++ {
		a := NewSynthSpec(7, id, 1)
		b := NewSynthSpec(7, id, 1)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("spec %d not deterministic: %+v vs %+v", id, a, b)
		}
		if a.Est <= 0 || a.V < a.Est {
			t.Fatalf("spec %d: Est=%d V=%d", id, a.Est, a.V)
		}
		for _, ph := range a.Phases {
			arms := []directive.Arm{{PI: 2, X: ph.W + ph.Lock}, {PI: 1, X: ph.W}}
			if err := directive.ValidateArms(arms, a.V); err != nil {
				t.Fatalf("spec %d: invalid arms %v: %v", id, arms, err)
			}
		}
		tr := a.Materialize()
		if tr.Refs != a.Refs {
			t.Fatalf("spec %d: materialized %d refs, spec says %d", id, tr.Refs, a.Refs)
		}
	}
}

// TestDeterministicAcrossWorkers is the acceptance criterion's core:
// the full Result — per-tenant accounting, violation lists, the rendered
// summary — must be byte-identical whether the shards run on one worker
// or eight.
func TestDeterministicAcrossWorkers(t *testing.T) {
	cfg := testConfig(64)
	cfg.Shards = 4
	cfg.Chaos = Chaos{Kill: true, Oscillate: true, Corrupt: true, Intensity: 0.8}
	a := mustRun(t, cfg, engine.New(1))
	b := mustRun(t, cfg, engine.New(8))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ across -j:\n%v\nvs\n%v", a, b)
	}
	if a.String() != b.String() {
		t.Fatalf("summaries differ across -j")
	}
}

// TestShardsRecycleCDPolicies: in the full-chaos CI population every
// shard builds no more CD policies, and no more WS fallbacks, than the
// peak number of its tenants holding a policy at once, because finished
// tenants hand theirs on. The run must really recycle — fewer policies
// than admissions, fewer fallbacks than degraded tenants — and recycling
// stays inside each shard, so the Result is the same at one worker and
// at four.
func TestShardsRecycleCDPolicies(t *testing.T) {
	counts, stop := RecordPolicies()
	defer stop()
	cfg := fullChaosConfig("cd")
	a := mustRun(t, cfg, engine.New(1))
	perShard := counts()
	stop()
	if len(a.Violations) != 0 {
		t.Fatalf("violations: %v", a.Violations)
	}
	if len(perShard) != a.Shards {
		t.Fatalf("recorded %d shards, the run has %d", len(perShard), a.Shards)
	}
	var built, fallbacks int
	for idx, c := range perShard {
		if c.Built > c.PeakHeld || c.Fallbacks > c.PeakHeld {
			t.Errorf("shard %d built %d policies and %d fallbacks for a peak of %d tenants holding one",
				idx, c.Built, c.Fallbacks, c.PeakHeld)
		}
		built += c.Built
		fallbacks += c.Fallbacks
	}
	t.Logf("%d shards: %d policies for %d tenants, %d fallbacks for %d degraded tenants",
		a.Shards, built, a.Tenants, fallbacks, a.Degraded)
	if int64(built) >= a.Admitted-a.Restarts || int64(fallbacks) >= a.Degraded {
		t.Errorf("no recycling: %d policies for %d first admissions, %d fallbacks for %d degraded tenants",
			built, a.Admitted-a.Restarts, fallbacks, a.Degraded)
	}
	if b := mustRun(t, cfg, engine.New(4)); !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ across -j:\n%v\nvs\n%v", a, b)
	}
}

func TestSeedStability(t *testing.T) {
	cfg := testConfig(48)
	a := mustRun(t, cfg, engine.New(2))
	b := mustRun(t, cfg, engine.New(2))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different results")
	}
	cfg.Seed = 2
	c := mustRun(t, cfg, engine.New(2))
	if a.Faults == c.Faults && a.Refs == c.Refs && a.MemSum == c.MemSum {
		t.Fatalf("different seeds produced identical accounting (refs=%d pf=%d)", a.Refs, a.Faults)
	}
}

// TestCleanOvercommit: at the default overcommit of 4 with no chaos,
// every tenant completes, nothing is shed or starved, and checked mode
// records zero violations.
func TestCleanOvercommit(t *testing.T) {
	cfg := testConfig(128)
	res := mustRun(t, cfg, engine.New(4))
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Done != int64(cfg.Tenants) || res.Shed != 0 {
		t.Fatalf("done=%d shed=%d want done=%d shed=0", res.Done, res.Shed, cfg.Tenants)
	}
	if res.Starved != 0 {
		t.Fatalf("starved=%d (max suspend wait %d, bound %d)", res.Starved, res.MaxSuspendWait, res.StarveBound)
	}
	if res.Refs == 0 || res.Faults == 0 {
		t.Fatalf("degenerate run: refs=%d pf=%d", res.Refs, res.Faults)
	}
	for _, tr := range res.PerTenant {
		if tr.State != "done" {
			t.Fatalf("tenant %s final state %s", tr.Name, tr.State)
		}
	}
}

// TestBoundedWait pins the aging scheduler's starvation guarantee under
// heavier overcommit: no suspension wait may exceed the starve bound.
func TestBoundedWait(t *testing.T) {
	cfg := testConfig(96)
	cfg.Overcommit = 8
	res := mustRun(t, cfg, engine.New(4))
	if res.MaxSuspendWait > res.StarveBound {
		t.Fatalf("max suspend wait %d exceeds bound %d", res.MaxSuspendWait, res.StarveBound)
	}
	if res.Starved != 0 {
		t.Fatalf("starved=%d", res.Starved)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

// TestChaosMatrix runs every chaos combination through checked mode: the
// kernel must absorb kills, capacity oscillation and corrupt directive
// streams by restarting, degrading or shedding — never by violating an
// invariant or leaving a tenant unfinished.
func TestChaosMatrix(t *testing.T) {
	combos := []Chaos{
		{Kill: true},
		{Oscillate: true},
		{Corrupt: true},
		{Kill: true, Oscillate: true},
		{Kill: true, Corrupt: true},
		{Oscillate: true, Corrupt: true},
		{Kill: true, Oscillate: true, Corrupt: true},
	}
	for _, c := range combos {
		c.Intensity = 1
		cfg := testConfig(96)
		cfg.Chaos = c
		res := mustRun(t, cfg, engine.New(4))
		if len(res.Violations) != 0 {
			t.Fatalf("chaos %+v: violations: %v", c, res.Violations)
		}
		if res.Done+res.Shed != int64(cfg.Tenants) {
			t.Fatalf("chaos %+v: done=%d shed=%d want sum %d", c, res.Done, res.Shed, cfg.Tenants)
		}
		if res.Starved != 0 {
			t.Fatalf("chaos %+v: starved=%d", c, res.Starved)
		}
		if c.Kill && res.Kills == 0 {
			t.Fatalf("chaos %+v: kill enabled at intensity 1 but no kills over %d tenants", c, cfg.Tenants)
		}
		if c.Corrupt && res.Degraded == 0 {
			t.Fatalf("chaos %+v: corrupt enabled at intensity 1 but no degradations", c)
		}
	}
}

// TestComparisonPools: the LRU and WS pools (the overload study's
// baselines) complete cleanly under the same kernel.
func TestComparisonPools(t *testing.T) {
	for _, pool := range []string{"lru", "ws"} {
		cfg := testConfig(64)
		cfg.Pool = pool
		res := mustRun(t, cfg, engine.New(4))
		if len(res.Violations) != 0 {
			t.Fatalf("pool %s: violations: %v", pool, res.Violations)
		}
		if res.Done != int64(cfg.Tenants) {
			t.Fatalf("pool %s: done=%d want %d", pool, res.Done, cfg.Tenants)
		}
	}
}

// TestOversizeShed: an explicit frame pool smaller than some tenants'
// declared estimates sheds exactly those tenants and completes the rest.
func TestOversizeShed(t *testing.T) {
	cfg := testConfig(64)
	cfg.Frames = 64
	cfg.Shards = 4 // 16 frames per shard: estimates above that are shed
	res := mustRun(t, cfg, engine.New(2))
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Done+res.Shed != int64(cfg.Tenants) {
		t.Fatalf("done=%d shed=%d want sum %d", res.Done, res.Shed, cfg.Tenants)
	}
	if res.Shed == 0 {
		t.Fatalf("expected oversize tenants at 16 frames/shard, none shed")
	}
	for _, tr := range res.PerTenant {
		if tr.State == "shed" && tr.Est <= 16 {
			t.Fatalf("tenant %s (est %d) shed despite fitting", tr.Name, tr.Est)
		}
	}
}

func TestLedgerConservation(t *testing.T) {
	cfg := testConfig(64)
	res := mustRun(t, cfg, engine.New(2))
	l := res.Ledger(16)
	if err := l.Conservation(); err != nil {
		t.Fatalf("ledger conservation: %v", err)
	}
	if len(l.Sites) == 0 || len(l.Sites) > 16 {
		t.Fatalf("ledger sites: %d", len(l.Sites))
	}
}

// TestTopFaultersMatchesSort pins the one-pass top-k selection to its
// definition: PerTenant sorted by the key (here faults) descending, ties
// by id, cut to k, tenants with a zero key left out. Fault counts drawn
// from a small range make ties common.
func TestTopFaultersMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	res := &Result{PerTenant: make([]TenantResult, 300)}
	for i := range res.PerTenant {
		res.PerTenant[i] = TenantResult{ID: i, Faults: int64(r.Intn(6))}
	}
	sorted := slices.Clone(res.PerTenant)
	slices.SortStableFunc(sorted, func(a, b TenantResult) int { return cmp.Compare(b.Faults, a.Faults) })
	nonzero := slices.IndexFunc(sorted, func(tr TenantResult) bool { return tr.Faults == 0 })
	for _, k := range []int{0, 1, 5, 37, nonzero, 256, 1000} {
		want := sorted[:min(k, nonzero)]
		if got := res.topBy(k, tenantFaults); !slices.Equal(got, want) {
			t.Fatalf("k=%d: top faulters %v, want %v", k, got, want)
		}
	}
}

// TestRenderTopExact checks the -top tables against their definition:
// each equals PerTenant stably sorted by its key, descending, with zero
// keys left out and cut to n. The displacement key adds up to the
// run's own suspension, restart and shed totals; the third population's
// 16-frame shards shed its oversize tenants.
func TestRenderTopExact(t *testing.T) {
	shedding := chaosTelemetryConfig(96)
	shedding.Frames = 64
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"chaos96", chaosTelemetryConfig(96)},
		{"chaos2000", fullChaosConfig("cd")},
		{"shed", shedding},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := mustRun(t, tc.cfg, engine.New(4))
			if tc.cfg.Frames > 0 && res.Shed == 0 {
				t.Fatal("fixture sheds no tenant")
			}
			var swaps, restarts, shed int64
			for _, tr := range res.PerTenant {
				swaps += int64(tr.Swaps)
				restarts += int64(tr.Restarts)
				if tr.State == "shed" {
					shed++
				}
			}
			if swaps != res.Suspends || restarts != res.Restarts || shed != res.Shed {
				t.Fatalf("per-tenant swaps %d, restarts %d, shed %d; run counted %d, %d, %d",
					swaps, restarts, shed, res.Suspends, res.Restarts, res.Shed)
			}
			if swaps+restarts+shed == 0 {
				t.Fatal("fixture displaces no tenant")
			}
			for _, n := range []int{1, 8, len(res.PerTenant) + 1} {
				var want strings.Builder
				for _, tbl := range []struct {
					name string
					key  func(*TenantResult) int64
				}{
					{"faults", func(tr *TenantResult) int64 { return tr.Faults }},
					{"frames", func(tr *TenantResult) int64 { return tr.MemSum }},
					{"displacements", func(tr *TenantResult) int64 {
						d := int64(tr.Swaps + tr.Restarts)
						if tr.State == "shed" {
							d++
						}
						return d
					}},
				} {
					sorted := slices.Clone(res.PerTenant)
					slices.SortStableFunc(sorted, func(a, b TenantResult) int { return cmp.Compare(tbl.key(&b), tbl.key(&a)) })
					fmt.Fprintf(&want, "top %s:\n", tbl.name)
					for i := 0; i < n && i < len(sorted) && tbl.key(&sorted[i]) != 0; i++ {
						fmt.Fprintf(&want, "  %2d. %-8s %12d\n", i+1, sorted[i].Name, tbl.key(&sorted[i]))
					}
				}
				if got := res.RenderTop(n); got != want.String() {
					t.Fatalf("RenderTop(%d):\n%s\nwant:\n%s", n, got, want.String())
				}
			}
		})
	}
}

// TestUsageDriftIsAViolation plants a drift in a checked shard's
// running resident total before it runs. The audit must report it once
// as a usage-drift violation, never panic, and resync: the shard still
// finishes every tenant, and the frame-leak check, which recounts from
// the policies, stays quiet. A small drift survives to the audit at
// shard end; one of a whole shard's frames forces a pressure wave on the
// first quantum, whose audit catches it.
func TestUsageDriftIsAViolation(t *testing.T) {
	cfg := testConfig(24).withDefaults()
	specs := make([]SynthSpec, cfg.Tenants)
	estSum := 0
	for i := range specs {
		specs[i] = NewSynthSpec(cfg.Seed, i, cfg.Scale)
		estSum += specs[i].Est
	}
	frames := estSum / 4
	for _, tc := range []struct {
		drift int
		when  string
	}{
		{-1, "at shard end"},
		{3, "at shard end"},
		{frames, "at a pressure wave"},
	} {
		sh := newShard(&cfg, 0, frames, specs, nil, nil)
		sh.plantUsageDrift(tc.drift)
		res := sh.run(nil)
		var drift []Violation
		for _, v := range res.Violations {
			if v.Kind != "usage-drift" {
				t.Errorf("drift %d: unexpected violation %s", tc.drift, v)
				continue
			}
			drift = append(drift, v)
		}
		if len(drift) != 1 || !strings.HasSuffix(drift[0].Detail, tc.when) {
			t.Fatalf("drift %d: usage-drift violations %v, want one %s", tc.drift, drift, tc.when)
		}
		if res.Done != int64(cfg.Tenants) {
			t.Fatalf("drift %d: done=%d, want %d", tc.drift, res.Done, cfg.Tenants)
		}
	}
}

// TestKernelSoak is the CI soak: 10k tenants, full chaos, checked mode,
// goroutine-leak checked. Gated behind CDMM_KERNEL_SOAK=1 so the tier-1
// suite stays fast.
func TestKernelSoak(t *testing.T) {
	if os.Getenv("CDMM_KERNEL_SOAK") != "1" {
		t.Skip("set CDMM_KERNEL_SOAK=1 to run the kernel soak")
	}
	before := runtime.NumGoroutine()
	cfg := Config{
		Tenants: 10000,
		Seed:    1,
		Checked: true,
		Chaos:   Chaos{Kill: true, Oscillate: true, Corrupt: true, Intensity: 0.8},
	}
	res := mustRun(t, cfg, engine.New(runtime.GOMAXPROCS(0)))
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Done+res.Shed != int64(cfg.Tenants) {
		t.Fatalf("done=%d shed=%d want sum %d", res.Done, res.Shed, cfg.Tenants)
	}
	if res.Starved != 0 {
		t.Fatalf("starved=%d (max wait %d, bound %d)", res.Starved, res.MaxSuspendWait, res.StarveBound)
	}
	// Engine workers park between maps; give them a beat, then require
	// the goroutine count back near the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}
