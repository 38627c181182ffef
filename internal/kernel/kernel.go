package kernel

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cdmm/internal/attr"
	"cdmm/internal/engine"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// Config parameterizes a kernel run. The zero value is not runnable;
// set Tenants (or Jobs and Frames) and call Run, which applies the
// documented defaults to zero fields and rejects out-of-range ones.
type Config struct {
	// Tenants is the synthesized population size.
	Tenants int
	// Jobs, when non-empty, replaces the synthesized population with an
	// explicit job list; Tenants must then be 0 and Frames set.
	Jobs []Job
	// Frames is the global frame pool. 0 derives it from Overcommit:
	// Σ declared estimates / Overcommit (each shard's slice is widened to
	// fit its largest tenant so a default-sized run never sheds).
	Frames int
	// Overcommit is the estimate-to-frames ratio used when Frames is 0.
	// Defaults to 4: the population declares four times the memory that
	// exists.
	Overcommit float64
	// Shards is the partition count; determinism is a function of the
	// shard count, never of -j. 0 picks ~one shard per 256 tenants,
	// clamped to [1, 64]; an explicit count may not exceed 4096 and is
	// clamped to Tenants.
	Shards int
	// Seed drives every synthetic draw and chaos decision.
	Seed uint64
	// Pool selects the per-tenant policy: "cd" (default), "lru", "ws".
	Pool string
	// Level is the CD directive stratum (ArmSelector level). Default 2:
	// honor the outer-arm request when memory allows.
	Level int
	// Quantum is the scheduler quantum in references. Default 512.
	Quantum int
	// Scale multiplies per-tenant reference counts (quick runs use <1).
	// Default 1.
	Scale float64

	// Checked enables the kernel-wide invariant checks (lock audits,
	// frame conservation, residency bounds). Violations are collected on
	// the Result, never panicked.
	Checked bool
	// Chaos selects fault injection.
	Chaos Chaos

	// Telemetry enables the distributional telemetry plane: latency
	// histograms and the flight recorder. Off (the default), the hot
	// loop pays one nil check per hook; on, collection is shard-local
	// integer state merged at the run barrier, so results stay
	// byte-identical at any -j and identical to a telemetry-off run.
	Telemetry bool
	// Publish, when non-nil, receives live telemetry during the run and
	// the final view at the barrier (the serve plane's /kernel source).
	// Setting it implies Telemetry.
	Publish *TelemetryStore
}

// Job is one program of an explicit job list: a reference stream and
// the caller-built policy that manages it. Run turns each job into one
// tenant, in order, named after Source.Meta().Name. A job declares no
// footprint estimate, so the admission gate never queues or sheds it;
// it is scheduled, suspended and chaos-injected like any synthesized
// tenant, and a CD policy gets its shard's Avail hook at admission.
// Per-tenant results, the summary's top faulters and RenderTop name it
// the same way.
type Job struct {
	Source trace.Source
	// Policy is any non-nil policy; Run resets it first.
	Policy policy.Policy
}

// MaxTenants bounds Config.Tenants. Run derives every tenant's spec up
// front, so the population must fit in memory whatever a flag asks for:
// a million quarter-scale tenants peak at 1–1.5 GB of RSS.
const MaxTenants = 1_000_000

// maxShards bounds Config.Shards. Each shard costs close to a kilobyte
// beyond its tenants' state, so a shard per tenant would nearly double a
// MaxTenants population's memory.
const maxShards = 4096

// The scheduler's fixed parameters.
const (
	// admitHi closes the admission gate when the admitted estimate sum
	// would exceed admitHi × frames; admitLo reopens it below admitLo ×
	// frames.
	admitHi = 1.0
	admitLo = 0.85 * admitHi
	// agingTicks bounds suspension: the suspension-FIFO head is force-
	// resumed after waiting this long, whatever the pressure. The starve
	// bound adds 16 quanta of margin (Config.starveBound).
	agingTicks = 256 * policy.FaultService
	// swapInDelay is charged to a tenant at suspension.
	swapInDelay = policy.FaultService
	// thrashWindow (references) and thrashRate (faults per 1000
	// references) parameterize the thrash watermark.
	thrashWindow = 32768
	thrashRate   = 400.0
	// maxRestarts bounds chaos kill-restarts per tenant.
	maxRestarts = 1
)

// The flight recorder's fixed parameters.
const (
	// flightEvents is the per-shard flight-recorder ring capacity.
	flightEvents = 64
	// maxIncidents bounds captured incident dumps per shard; further
	// triggers are counted, not stored.
	maxIncidents = 4
)

// withDefaults returns a copy with the documented defaults applied to
// every zero field. Negative and out-of-range values are left for
// validate to reject.
func (c Config) withDefaults() Config {
	if c.Overcommit == 0 {
		c.Overcommit = 4
	}
	if c.Pool == "" {
		c.Pool = "cd"
	}
	if c.Level == 0 {
		c.Level = 2
	}
	if c.Quantum == 0 {
		c.Quantum = 512
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Publish != nil {
		c.Telemetry = true
	}
	return c
}

// starveBound is the wait above which a resume counts as starved: the
// aging bound plus 16 quanta, the scheduler's provable bound with margin
// (see the bounded-wait test).
func (c *Config) starveBound() int64 { return agingTicks + 16*int64(c.Quantum) }

// validate rejects a defaulted configuration with any field out of
// range, naming the field and its value.
func (c *Config) validate() error {
	if len(c.Jobs) > 0 {
		if c.Tenants != 0 {
			return fmt.Errorf("kernel: Tenants must be 0 with Jobs (got %d)", c.Tenants)
		}
		if c.Frames <= 0 {
			return fmt.Errorf("kernel: Frames must be positive with Jobs (got %d)", c.Frames)
		}
		for i, j := range c.Jobs {
			if j.Source == nil {
				return fmt.Errorf("kernel: Jobs[%d].Source must not be nil (got nil)", i)
			}
			if j.Policy == nil {
				return fmt.Errorf("kernel: Jobs[%d].Policy must not be nil (got nil)", i)
			}
		}
	} else if c.Tenants <= 0 || c.Tenants > MaxTenants {
		return fmt.Errorf("kernel: Tenants must be in [1, %d] (got %d)", MaxTenants, c.Tenants)
	}
	if c.Shards < 0 || c.Shards > maxShards {
		return fmt.Errorf("kernel: Shards must be in [0, %d] (got %d)", maxShards, c.Shards)
	}
	switch c.Pool {
	case "cd", "lru", "ws":
	default:
		return fmt.Errorf("kernel: Pool must be cd, lru or ws (got %q)", c.Pool)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Frames", c.Frames}, {"Level", c.Level}, {"Quantum", c.Quantum},
	} {
		if f.v < 0 {
			return fmt.Errorf("kernel: %s must not be negative (got %d)", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Overcommit", c.Overcommit}, {"Scale", c.Scale},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("kernel: %s must be a positive finite number (got %v)", f.name, f.v)
		}
	}
	if in := c.Chaos.Intensity; !(in >= 0 && in <= 1) {
		return fmt.Errorf("kernel: Chaos.Intensity must be in [0, 1] (got %v)", in)
	}
	return nil
}

// defaultShards picks ~one shard per 256 tenants, clamped to [1, 64].
// A function of the population alone — never of GOMAXPROCS — so results
// do not depend on the machine.
func defaultShards(tenants int) int {
	s := (tenants + 255) / 256
	if s < 1 {
		s = 1
	}
	if s > 64 {
		s = 64
	}
	return s
}

// newTenantPolicy builds a tenant's policy and readies it for the
// tenant's stream by the one vmsim.Prepare rule: reset, then sized to
// the stream's page universe. A job brings its own policy. Otherwise
// the pool decides: only CD tenants get a validator (and, at admission,
// an Avail hook); LRU tenants run a fixed partition sized to their
// declared estimate, WS tenants the directive-blind default window —
// the comparison pools of the overload study.
func newTenantPolicy(cfg *Config, t *tenant) policy.Policy {
	var pol policy.Policy
	switch {
	case t.job != nil:
		pol = t.job.Policy
	case cfg.Pool == "lru":
		pol = policy.NewLRU(t.spec.Est)
	case cfg.Pool == "ws":
		pol = policy.NewWS(policy.DefaultFallbackTau)
	default:
		cd := policy.NewCD(policy.SelectLevel(cfg.Level), 2)
		cd.Check = &policy.CheckConfig{MaxPage: t.spec.V}
		pol = cd
	}
	vmsim.Prepare(pol, t.src.Meta())
	return pol
}

// Violation is one recorded invariant breach.
type Violation struct {
	Shard  int    `json:"shard"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// String renders the violation.
func (v Violation) String() string {
	s := fmt.Sprintf("shard %d: %s", v.Shard, v.Kind)
	if v.Tenant != "" {
		s += " tenant " + v.Tenant
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return s
}

// Result is the kernel run's aggregate accounting, merged from the
// shard results in shard order — deterministic across -j and repeated
// seeds by construction.
type Result struct {
	Tenants    int     `json:"tenants"`
	Frames     int     `json:"frames"`
	Shards     int     `json:"shards"`
	Seed       uint64  `json:"seed"`
	Pool       string  `json:"pool"`
	Overcommit float64 `json:"overcommit"`

	Refs   int64 `json:"refs"`
	Faults int64 `json:"pf"`
	MemSum int64 `json:"memSum"`
	VTime  int64 `json:"vtime"`
	// Makespan is the largest shard clock at shutdown.
	Makespan int64 `json:"makespan"`
	Idle     int64 `json:"idle"`

	Admitted        int64 `json:"admitted,omitempty"`
	Done            int64 `json:"done,omitempty"`
	Shed            int64 `json:"shed,omitempty"`
	Suspends        int64 `json:"suspends,omitempty"`
	Resumes         int64 `json:"resumes,omitempty"`
	ReclaimWaves    int64 `json:"reclaimWaves,omitempty"`
	ReclaimedFrames int64 `json:"reclaimedFrames,omitempty"`
	Kills           int64 `json:"kills,omitempty"`
	Restarts        int64 `json:"restarts,omitempty"`
	Degraded        int64 `json:"degraded,omitempty"`
	SwapSignals     int64 `json:"swapSignals,omitempty"`
	LockReleases    int64 `json:"lockReleases,omitempty"`
	ThrashEvents    int64 `json:"thrashEvents,omitempty"`
	Overruns        int64 `json:"overruns,omitempty"`

	MaxQueueWait   int64 `json:"maxQueueWait"`
	MaxSuspendWait int64 `json:"maxSuspendWait"`
	StarveBound    int64 `json:"starveBound"`
	Starved        int64 `json:"starved"`

	Violations []Violation    `json:"violations,omitempty"`
	PerTenant  []TenantResult `json:"perTenant,omitempty"`

	// Telemetry is the merged telemetry snapshot (nil when the plane is
	// off); Incidents are the flight-recorder dumps in shard order.
	// Neither feeds back into the scheduler, so the fields above are
	// byte-identical whether or not these are collected.
	Telemetry        *TelemetrySnapshot `json:"telemetry,omitempty"`
	Incidents        []Incident         `json:"incidents,omitempty"`
	IncidentsDropped int64              `json:"incidentsDropped,omitempty"`
}

// FaultRate returns faults per 1000 references.
func (r *Result) FaultRate() float64 {
	if r.Refs == 0 {
		return 0
	}
	return float64(r.Faults) * 1000 / float64(r.Refs)
}

// String renders the deterministic run summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel: %d tenants, %d frames, %d shards, pool %s", r.Tenants, r.Frames, r.Shards, r.Pool)
	if r.Overcommit > 0 { // a job run derives nothing from it
		fmt.Fprintf(&b, ", overcommit %.2f", r.Overcommit)
	}
	fmt.Fprintf(&b, ", seed %d\n", r.Seed)
	fmt.Fprintf(&b, "refs=%d pf=%d (%.2f/1k refs) memsum=%d makespan=%d idle=%d\n",
		r.Refs, r.Faults, r.FaultRate(), r.MemSum, r.Makespan, r.Idle)
	fmt.Fprintf(&b, "admitted=%d done=%d shed=%d suspends=%d resumes=%d reclaim-waves=%d reclaimed=%d\n",
		r.Admitted, r.Done, r.Shed, r.Suspends, r.Resumes, r.ReclaimWaves, r.ReclaimedFrames)
	fmt.Fprintf(&b, "kills=%d restarts=%d degraded=%d swap-signals=%d lock-releases=%d thrash=%d overruns=%d\n",
		r.Kills, r.Restarts, r.Degraded, r.SwapSignals, r.LockReleases, r.ThrashEvents, r.Overruns)
	fmt.Fprintf(&b, "max-queue-wait=%d max-suspend-wait=%d (starve bound %d) starved=%d violations=%d",
		r.MaxQueueWait, r.MaxSuspendWait, r.StarveBound, r.Starved, len(r.Violations))
	for i, v := range r.Violations {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(r.Violations)-8)
			break
		}
		fmt.Fprintf(&b, "\n  VIOLATION %s", v.String())
	}
	if top := r.topBy(5, tenantFaults); len(top) > 0 {
		b.WriteString("\ntop faulters:")
		for _, t := range top {
			fmt.Fprintf(&b, " %s(pf=%d)", t.Name, t.Faults)
		}
	}
	return b.String()
}

// RenderTop renders three tables of the top n tenants, exact from
// PerTenant: by faults, by frames (the resident-set integral MemSum)
// and by displacements (suspensions, kills and sheds).
func (r *Result) RenderTop(n int) string {
	var b strings.Builder
	for _, tbl := range []struct {
		name string
		key  func(*TenantResult) int64
	}{
		{"faults", tenantFaults},
		{"frames", tenantFrames},
		{"displacements", tenantDisplacements},
	} {
		fmt.Fprintf(&b, "top %s:\n", tbl.name)
		for i, t := range r.topBy(n, tbl.key) {
			fmt.Fprintf(&b, "  %2d. %-8s %12d\n", i+1, t.Name, tbl.key(&t))
		}
	}
	return b.String()
}

// The keys RenderTop, the summary and Ledger rank tenants by.
func tenantFaults(t *TenantResult) int64 { return t.Faults }
func tenantFrames(t *TenantResult) int64 { return t.MemSum }

// tenantDisplacements counts the times the kernel took t off its frames
// against its will: suspensions, chaos kills, and a shed.
func tenantDisplacements(t *TenantResult) int64 {
	n := int64(t.Swaps + t.Restarts)
	if t.State == StateShed.String() {
		n++
	}
	return n
}

// topBy returns the k tenants with the largest key (ties by id),
// leaving out tenants whose key is zero. It selects them in one pass
// over PerTenant, keeping the running top k in order.
func (r *Result) topBy(k int, key func(*TenantResult) int64) []TenantResult {
	pt := r.PerTenant
	before := func(a, b int) bool {
		if ka, kb := key(&pt[a]), key(&pt[b]); ka != kb {
			return ka > kb
		}
		return pt[a].ID < pt[b].ID
	}
	var top []int // indexes into pt, best first
	for i := range pt {
		if key(&pt[i]) == 0 {
			continue
		}
		j := len(top)
		for j > 0 && before(i, top[j-1]) {
			j--
		}
		if j >= k {
			continue
		}
		top = slices.Insert(top, j, i)
		if len(top) > k {
			top = top[:k]
		}
	}
	out := make([]TenantResult, len(top))
	for j, i := range top {
		out[j] = pt[i]
	}
	return out
}

// Ledger builds a per-tenant attribution ledger: the top k tenants by
// fault count become sites (Nest = tenant name), everything else folds
// into the unattributed bucket, so Conservation holds while the serve
// plane's per-site scrape series stay cardinality-bounded however large
// the population.
func (r *Result) Ledger(k int) *attr.Ledger {
	top := r.topBy(k, tenantFaults)
	sites := make([]trace.Site, len(top))
	for i, t := range top {
		sites[i] = trace.Site{Nest: t.Name}
	}
	l := attr.NewLedger("kernel", r.Pool, sites)
	named := make(map[string]int, len(top))
	for i, t := range top {
		named[t.Name] = i
	}
	for _, t := range r.PerTenant {
		slot := l.Slot(trace.NoSite)
		if i, ok := named[t.Name]; ok {
			slot = l.Slot(int32(i))
		}
		slot.Refs += t.Refs
		slot.Faults += int(t.Faults)
		slot.MemSum += float64(t.MemSum)
		slot.VTime += t.VTime
	}
	l.Refs = int(r.Refs)
	l.Faults = int(r.Faults)
	l.MemSum = float64(r.MemSum)
	l.VirtualTime = r.VTime
	return l
}

// liveGauges publishes the kernel's live tenant-state counts
// (cdmm_kernel_tenants_* via the serve plane). Shards update the shared
// atomic cells on every transition and flush them into the gauges at
// progress cadence. A nil *liveGauges (unobserved run) is a no-op.
type liveGauges struct {
	queued, running, suspended, degraded atomic.Int64

	gQueued, gRunning, gSuspended, gDegraded *obs.Gauge
}

func newLiveGauges(reg *obs.Registry) *liveGauges {
	return &liveGauges{
		gQueued:    reg.Gauge("kernel_tenants_queued"),
		gRunning:   reg.Gauge("kernel_tenants_resident"),
		gSuspended: reg.Gauge("kernel_tenants_suspended"),
		gDegraded:  reg.Gauge("kernel_tenants_degraded"),
	}
}

func (g *liveGauges) addQueued(n int64) {
	if g != nil {
		g.queued.Add(n)
	}
}

func (g *liveGauges) admit() {
	if g != nil {
		g.queued.Add(-1)
		g.running.Add(1)
	}
}

func (g *liveGauges) suspendFromRunning() {
	if g != nil {
		g.running.Add(-1)
		g.suspended.Add(1)
	}
}

func (g *liveGauges) resumeToRunning() {
	if g != nil {
		g.suspended.Add(-1)
		g.running.Add(1)
	}
}

func (g *liveGauges) finishFromRunning() {
	if g != nil {
		g.running.Add(-1)
	}
}

func (g *liveGauges) killToQueued() {
	if g != nil {
		g.running.Add(-1)
		g.queued.Add(1)
	}
}

func (g *liveGauges) shedFromQueued() {
	if g != nil {
		g.queued.Add(-1)
	}
}

func (g *liveGauges) degrade() {
	if g != nil {
		g.degraded.Add(1)
	}
}

func (g *liveGauges) flush() {
	if g == nil {
		return
	}
	g.gQueued.Set(float64(g.queued.Load()))
	g.gRunning.Set(float64(g.running.Load()))
	g.gSuspended.Set(float64(g.suspended.Load()))
	g.gDegraded.Set(float64(g.degraded.Load()))
}

// Run executes the kernel: synthesize the population, partition it into
// shards, run the shards on the engine's worker pool, and merge the
// results in shard order. The returned Result (including violation and
// per-tenant ordering) is byte-identical at any -j.
func Run(cfg Config, eng *engine.Engine) (*Result, error) {
	// The registry counts the plane's incidents only when the caller
	// asked for the plane: publishing alone leaves the registry as an
	// unpublished run leaves it.
	countPlane := cfg.Telemetry
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	var specs []SynthSpec
	estSum := 0
	if len(cfg.Jobs) > 0 {
		// One tenant per job, in order. A job's spec only names it and
		// sizes it: no phases and no estimate, and the pool and
		// overcommit settings do not apply.
		cfg.Tenants, cfg.Pool, cfg.Overcommit = len(cfg.Jobs), "jobs", 0
		specs = make([]SynthSpec, len(cfg.Jobs))
		for i, j := range cfg.Jobs {
			m := j.Source.Meta()
			specs[i] = SynthSpec{ID: i, Name: m.Name, V: int(m.MaxPage) + 1, Refs: m.Refs}
		}
	} else {
		specs = make([]SynthSpec, cfg.Tenants)
		for i := range specs {
			specs[i] = NewSynthSpec(cfg.Seed, i, cfg.Scale)
			estSum += specs[i].Est
		}
	}

	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultShards(cfg.Tenants)
	}
	if shards > cfg.Tenants {
		shards = cfg.Tenants
	}

	// Partition tenants by id and split the pool evenly; a derived pool
	// widens any shard slice below its own largest estimate so default
	// runs never shed for geometry alone. An explicit Frames is honored
	// exactly — oversize tenants are then shed, by design.
	perShard := make([][]SynthSpec, shards)
	for i := range specs {
		perShard[i%shards] = append(perShard[i%shards], specs[i])
	}
	frames := cfg.Frames
	derived := frames <= 0
	if derived {
		frames = int(float64(estSum) / cfg.Overcommit)
		if frames < 16 {
			frames = 16
		}
	}
	shardFrames := make([]int, shards)
	for i := range shardFrames {
		shardFrames[i] = frames / shards
		if i < frames%shards {
			shardFrames[i]++
		}
		if shardFrames[i] < 2 {
			shardFrames[i] = 2
		}
		if derived {
			for _, s := range perShard[i] {
				if s.Est > shardFrames[i] {
					shardFrames[i] = s.Est
				}
			}
		}
	}
	totalFrames := 0
	for _, f := range shardFrames {
		totalFrames += f
	}

	var gaugesOnce sync.Once
	var gauges *liveGauges

	cfg.Publish.begin(fmt.Sprintf("kernel/%s tenants=%d seed=%d", cfg.Pool, cfg.Tenants, cfg.Seed), shards)

	idxs := make([]int, shards)
	for i := range idxs {
		idxs[i] = i
	}
	shardResults, err := engine.MapNamed(eng, "kernel", idxs, func(rc *engine.RunCtx, i int) (*shardResult, error) {
		rc.Describe(fmt.Sprintf("kernel/shard%02d", i), cfg.Pool)
		var o *obs.Observer
		if rc.Obs != nil && rc.Obs.Enabled() {
			o = rc.Obs
		}
		// The engine hands every run the same Metrics registry, so the
		// first shard through the Once creates the shared gauges and the
		// Once's barrier publishes them to the rest.
		gaugesOnce.Do(func() {
			if o != nil && o.Metrics != nil {
				gauges = newLiveGauges(o.Metrics)
			}
		})
		sh := newShard(&cfg, i, shardFrames[i], perShard[i], o, gauges)
		res := sh.run(obs.ProgressOf(rc.Obs))
		if o != nil && o.Metrics != nil {
			addShardMetrics(o.Metrics, res, countPlane)
		}
		rc.Report(vmsim.Result{
			Policy: cfg.Pool, Refs: int(res.Refs), Faults: int(res.Faults),
			MemSum: float64(res.MemSum), VirtualTime: res.VTime,
		})
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Tenants:     cfg.Tenants,
		Frames:      totalFrames,
		Shards:      shards,
		Seed:        cfg.Seed,
		Pool:        cfg.Pool,
		Overcommit:  cfg.Overcommit,
		StarveBound: cfg.starveBound(),
		PerTenant:   make([]TenantResult, cfg.Tenants),
	}
	for _, sr := range shardResults {
		res.Refs += sr.Refs
		res.Faults += sr.Faults
		res.MemSum += sr.MemSum
		res.VTime += sr.VTime
		res.Idle += sr.Idle
		if sr.Clock > res.Makespan {
			res.Makespan = sr.Clock
		}
		res.Admitted += sr.Admitted
		res.Done += sr.Done
		res.Shed += sr.Shed
		res.Suspends += sr.Suspends
		res.Resumes += sr.Resumes
		res.ReclaimWaves += sr.ReclaimWaves
		res.ReclaimedFrames += sr.ReclaimedFrames
		res.Kills += sr.Kills
		res.Restarts += sr.Restarts
		res.Degraded += sr.Degraded
		res.SwapSignals += sr.SwapSignals
		res.LockReleases += sr.LockReleases
		res.ThrashEvents += sr.ThrashEvents
		res.Overruns += sr.Overruns
		if sr.MaxQueueWait > res.MaxQueueWait {
			res.MaxQueueWait = sr.MaxQueueWait
		}
		if sr.MaxSuspendWait > res.MaxSuspendWait {
			res.MaxSuspendWait = sr.MaxSuspendWait
		}
		res.Starved += sr.Starved
		res.Violations = append(res.Violations, sr.Violations...)
		res.Incidents = append(res.Incidents, sr.Incidents...)
		res.IncidentsDropped += sr.IncidentsDropped
		for _, t := range sr.Tenants {
			res.PerTenant[t.ID] = t
		}
	}
	if cfg.Telemetry {
		// Fold the shards into the first one's state, which no one else
		// reads once its shard is done: merging into a fresh telem would
		// only copy it first.
		merged := shardResults[0].Telem
		for _, sr := range shardResults[1:] {
			merged.merge(sr.Telem)
		}
		res.Telemetry = merged.snapshot()
		cfg.Publish.publishFinal(&TelemetryView{
			Run:              fmt.Sprintf("kernel/%s tenants=%d seed=%d", cfg.Pool, cfg.Tenants, cfg.Seed),
			Final:            true,
			Incidents:        len(res.Incidents),
			IncidentsDropped: res.IncidentsDropped,
			Telemetry:        res.Telemetry,
		})
	}
	return res, nil
}

// addShardMetrics folds a completed shard's totals into the registry's
// kernel counters (atomic adds: order-independent totals at any -j),
// and its incident count when countPlane is set.
func addShardMetrics(reg *obs.Registry, sr *shardResult, countPlane bool) {
	reg.Counter("kernel_refs").Add(sr.Refs)
	reg.Counter("kernel_faults").Add(sr.Faults)
	reg.Counter("kernel_admitted").Add(sr.Admitted)
	reg.Counter("kernel_done").Add(sr.Done)
	reg.Counter("kernel_shed").Add(sr.Shed)
	reg.Counter("kernel_suspends").Add(sr.Suspends)
	reg.Counter("kernel_resumes").Add(sr.Resumes)
	reg.Counter("kernel_reclaim_waves").Add(sr.ReclaimWaves)
	reg.Counter("kernel_reclaimed_frames").Add(sr.ReclaimedFrames)
	reg.Counter("kernel_kills").Add(sr.Kills)
	reg.Counter("kernel_degraded").Add(sr.Degraded)
	reg.Counter("kernel_thrash_events").Add(sr.ThrashEvents)
	reg.Counter("kernel_starved").Add(sr.Starved)
	reg.Counter("kernel_violations").Add(int64(len(sr.Violations)))
	if countPlane {
		reg.Counter("kernel_incidents").Add(int64(len(sr.Incidents)))
	}
}
