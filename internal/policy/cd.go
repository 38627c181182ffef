package policy

import (
	"sync/atomic"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// ArmSelector decides which arm of an ALLOCATE directive's else-chain the
// operating system grants, or reports that this directive is not part of
// the executed set (ok = false). The paper's §5 setup fixes "the set of
// directives to be executed" before each uniprogramming run; SelectLevel
// encodes those sets. In a multiprogramming system the grant additionally
// depends on the memory available at execution time (the Figure 6
// flowchart), which CD.Alloc applies on top of the selector when Avail is
// set.
type ArmSelector func(label string, arms []directive.Arm) (directive.Arm, bool)

// SelectLevel returns the selector for the directive set of stratum k:
// only the directives inserted before loops of priority index ≤ k execute
// (the "directives at the lower levels" of the paper's Table 1), and each
// grants the arm with the largest priority index not exceeding k — the
// outermost locality the set honors. SelectLevel(1) executes only the
// innermost-loop directives with their own smallest localities (least
// memory, most faults); SelectLevel(Δ) executes everything and grants the
// outermost locality (most memory, fewest faults).
func SelectLevel(level int) ArmSelector {
	return func(_ string, arms []directive.Arm) (directive.Arm, bool) {
		// Arms are ordered outermost→innermost with strictly decreasing
		// PI; the last arm is the loop's own (PI, X).
		if arms[len(arms)-1].PI > level {
			return directive.Arm{}, false // directive not in the executed set
		}
		for _, a := range arms {
			if a.PI <= level {
				return a, true
			}
		}
		return arms[len(arms)-1], true
	}
}

// SelectLevels builds a mixed directive set: loops whose key appears in
// overrides are honored at their own stratum, everything else at def.
// This models the paper's hand-chosen "sets of directives to be executed",
// which need not be uniform across a program's loop nests (Table 1 ran
// MAIN under four different such sets).
func SelectLevels(def int, overrides map[string]int) ArmSelector {
	base := SelectLevel(def)
	byLevel := map[int]ArmSelector{}
	return func(label string, arms []directive.Arm) (directive.Arm, bool) {
		lvl, ok := overrides[label]
		if !ok {
			return base(label, arms)
		}
		sel := byLevel[lvl]
		if sel == nil {
			sel = SelectLevel(lvl)
			byLevel[lvl] = sel
		}
		return sel(label, arms)
	}
}

// CD is the Compiler Directed memory management policy (§4): a variable-
// allocation policy whose resident-set ceiling tracks the executed
// ALLOCATE directives, with local-LRU replacement inside the allocation,
// soft page locks honored until memory pressure forces their release in
// increasing lock-priority order (largest PJ first), and a swap trigger
// when a PI = 1 request cannot be granted.
//
// Concurrency contract: a CD instance is not safe for concurrent use.
// In particular Reclaim — the operating system's pressure valve — must
// be serialized with StepBlock/Ref by the caller (the multiprogramming
// kernel runs each tenant's policy on its shard's single simulation
// thread; anything else needs an external mutex). The
// mutators enforce this with a cheap in-flight guard that panics with a
// clear message instead of corrupting the LRU list silently.
type CD struct {
	selector ArmSelector
	minAlloc int

	// Avail, when non-nil, reports how many pages the operating system can
	// currently grant this program (the multiprogramming kernel hooks it
	// to its shard's free frames).
	// When nil the memory is unbounded and the selector alone decides,
	// which is the paper's uniprogramming §5 setup.
	Avail func() int

	alloc  int // current allocation target in pages
	list   *lruList
	locked int // number of currently locked resident pages
	// locksBySite maps a LOCK site id to its currently locked pages so a
	// re-executed site replaces its previous locks.
	locksBySite map[int][]mem.Page

	// SwapSignals counts ALLOCATE executions where the innermost (PI = 1)
	// request could not be granted — the condition under which the §4
	// policy invokes the swapper. Under uniprogramming this stays 0.
	SwapSignals int
	// LockReleases counts locked pages the OS released under memory
	// pressure without an UNLOCK.
	LockReleases int

	// Hooks, when non-nil, receives CD-internal transitions as they
	// happen (the observability layer uses this to timestamp phase
	// changes, swap signals and forced lock releases with the exact
	// virtual time). Reset preserves Hooks.
	Hooks *CDHooks

	// Check, when non-nil, validates every directive against the §3
	// contract and degrades the policy to a WS fallback on the first
	// violation (see cdcheck.go). Reset preserves Check but clears any
	// degradation, so the policy can replay another trace.
	Check *CheckConfig

	degraded       bool
	degradedReason string
	fallback       *WS // WS policy serving references after degradation

	// onEvict is the eviction hook (see EvictObserver). It fires for
	// replacement and directive-shrink evictions; forced lock releases
	// report through Hooks.LockRelease instead so the attribution layer
	// can tell the two apart.
	onEvict func(mem.Page)

	// busy guards the list-mutating entry points (StepBlock, Reclaim)
	// against overlapping calls — see the concurrency contract above.
	busy atomic.Int32
}

// acquire marks a list-mutating operation in flight. Overlap — whether
// from another goroutine or from a hook reentering the policy — is a
// caller bug that would corrupt the LRU list, so it fails loudly and
// deterministically rather than racing.
func (p *CD) acquire(op string) {
	if !p.busy.CompareAndSwap(0, 1) {
		panic("policy: CD." + op + " called while another StepBlock/Reclaim is in flight: " +
			"CD is not safe for concurrent use; serialize access externally")
	}
}

func (p *CD) release() { p.busy.Store(0) }

// CDHooks are optional callbacks into CD's internal transitions. Any
// field may be nil.
type CDHooks struct {
	// AllocChange fires when an executed directive moves the allocation
	// target — the policy-visible signature of a locality transition.
	AllocChange func(prev, next int)
	// SwapSignal fires when an ungrantable PI = 1 request raises the
	// swapper.
	SwapSignal func()
	// LockRelease fires when the OS force-releases a locked page.
	LockRelease func(pg mem.Page)
	// Degrade fires when a directive-contract violation switches the
	// policy to its WS fallback (at most once per run).
	Degrade func(reason string)
}

// NewCD returns a CD policy. The selector chooses ALLOCATE arms (nil
// defaults to SelectLevel(1), the innermost stratum); minAlloc is the
// system-default minimum allocation in pages.
func NewCD(selector ArmSelector, minAlloc int) *CD {
	if selector == nil {
		selector = SelectLevel(1)
	}
	if minAlloc < 1 {
		minAlloc = 1
	}
	return &CD{
		selector:    selector,
		minAlloc:    minAlloc,
		alloc:       minAlloc,
		list:        newLRUList(),
		locksBySite: map[int][]mem.Page{},
	}
}

// Name implements Policy.
func (p *CD) Name() string { return "CD" }

// Allocation returns the current allocation target.
func (p *CD) Allocation() int { return p.alloc }

// HintPages implements PageHinter.
func (p *CD) HintPages(maxPage mem.Page, distinct int) { p.list.hint(maxPage, distinct) }

// SetEvictHook implements EvictObserver. A hook installed after
// degradation reaches the WS fallback too.
func (p *CD) SetEvictHook(fn func(mem.Page)) {
	p.onEvict = fn
	if p.fallback != nil {
		p.fallback.SetEvictHook(fn)
	}
}

// Alloc implements Policy: process an executed ALLOCATE directive
// following the Figure 6 flowchart. The selector first narrows the
// else-chain to the stratum being honored; if memory is bounded (Avail
// set) the request is granted only when it fits, falling through the
// chain to smaller requests. An ungrantable request whose innermost
// priority index is 1 raises the swap signal; with PI > 1 the program
// simply continues under its current allocation until the next directive.
func (p *CD) Alloc(d trace.AllocDirective) {
	if p.degraded {
		return // directives are no longer trusted
	}
	if p.Check != nil {
		if err := p.validateAlloc(d); err != nil {
			p.degrade(err.Error())
			return
		}
	}
	arms := d.Arms
	if len(arms) == 0 {
		return
	}
	chosen, ok := p.selector(d.Label, arms)
	if !ok {
		return // this directive is not part of the executed set
	}
	if p.Avail == nil {
		p.setTarget(chosen.X)
		return
	}
	avail := p.Avail() + p.list.len() // frames already held stay granted
	// Try the chain from the chosen arm inward (X non-increasing).
	start := 0
	for i, a := range arms {
		if a == chosen {
			start = i
			break
		}
	}
	for _, a := range arms[start:] {
		if a.X <= avail {
			p.setTarget(a.X)
			return
		}
	}
	// Nothing fits. PI = 1 at the innermost level means the program is
	// entering its smallest locality and cannot run: invoke the swapper.
	if arms[len(arms)-1].PI == 1 {
		p.SwapSignals++
		if p.Hooks != nil && p.Hooks.SwapSignal != nil {
			p.Hooks.SwapSignal()
		}
	}
	// Otherwise (or additionally), continue with the current allocation.
}

// setTarget applies a granted allocation.
func (p *CD) setTarget(x int) {
	if x < p.minAlloc {
		x = p.minAlloc
	}
	if x != p.alloc && p.Hooks != nil && p.Hooks.AllocChange != nil {
		p.Hooks.AllocChange(p.alloc, x)
	}
	p.alloc = x
	p.shrinkTo(p.alloc)
}

// shrinkTo evicts LRU unlocked pages until the unlocked resident set fits
// n pages. Locked pages ride above the allocation: the ALLOCATE request X
// sizes the loop's own locality, while LOCK pins pages of *outer* loop
// localities on top of it (LOCK exists precisely for when an outer
// request was not granted, §3.2).
func (p *CD) shrinkTo(n int) {
	for p.list.len()-p.locked > n {
		v, ok := p.list.evictLRU()
		if !ok {
			return // everything left is locked
		}
		if p.onEvict != nil {
			p.onEvict(v)
		}
	}
}

// Ref implements Policy.
func (p *CD) Ref(pg mem.Page) bool {
	if p.degraded {
		return p.fallback.Ref(pg)
	}
	if s := p.list.lookupResident(pg); s >= 0 {
		p.list.touchSlot(s)
		return false
	}
	p.refMiss(pg)
	return true
}

// refMiss faults pg into a healthy (non-degraded) CD policy, replacing
// under the directive ceiling. Shared by Ref and StepBlock so the two
// paths cannot drift. Locked pages ride above the allocation, which is
// at least one page, so a full unlocked set always holds an LRU page to
// evict: a miss never releases a lock. Only ForceRelease does, under
// the operating system's pressure.
func (p *CD) refMiss(pg mem.Page) {
	if p.list.len()-p.locked >= p.alloc {
		if v, ok := p.list.evictLRU(); ok && p.onEvict != nil {
			p.onEvict(v)
		}
	}
	p.list.insert(pg)
}

// releaseLock clears the lock bookkeeping for a slot being force-released.
func (p *CD) releaseLock(s int32) {
	site := int(p.list.slots[s].site)
	page := p.list.idx.pageOf(s)
	pages := p.locksBySite[site]
	for i, q := range pages {
		if q == page {
			p.locksBySite[site] = append(pages[:i], pages[i+1:]...)
			break
		}
	}
	p.list.slots[s].locked = false
	p.locked--
}

// Lock implements Policy: pin the pages of a LOCK execution. Pages locked
// earlier by the same site are unlocked first (the site has moved on to
// new indices). Locked pages that are not yet resident are faulted in by
// later references as usual; LOCK only pins pages already or subsequently
// resident.
func (p *CD) Lock(ls trace.LockSet) {
	if p.degraded {
		return
	}
	if p.Check != nil {
		if err := p.validateLock(ls); err != nil {
			p.degrade(err.Error())
			return
		}
	}
	prev := p.locksBySite[ls.Site]
	for _, old := range prev {
		if s := p.list.lookupResident(old); s >= 0 && p.list.slots[s].locked && int(p.list.slots[s].site) == ls.Site {
			p.list.slots[s].locked = false
			p.locked--
		}
	}
	// Truncate rather than nil the site's page list so re-executions
	// append into retained capacity.
	p.locksBySite[ls.Site] = prev[:0]
	for _, pg := range ls.Pages {
		s := p.list.lookupResident(pg)
		if s < 0 {
			// Pin-on-arrival: remember the page so that when it faults in
			// it is locked. To keep the model simple (and matching the
			// paper's "prevent some pages from being paged out"), we lock
			// only resident pages; a non-resident page will be locked at
			// its next LOCK execution if still wanted.
			continue
		}
		if !p.list.slots[s].locked {
			p.locked++
		}
		p.list.slots[s].locked = true
		p.list.slots[s].pj = int32(ls.PJ)
		p.list.slots[s].site = int32(ls.Site)
		p.locksBySite[ls.Site] = append(p.locksBySite[ls.Site], pg)
	}
}

// Unlock implements Policy: release any locks covering the given pages.
func (p *CD) Unlock(pages []mem.Page) {
	if p.degraded {
		return
	}
	if p.Check != nil {
		if err := p.validateUnlock(pages); err != nil {
			p.degrade(err.Error())
			return
		}
	}
	for _, pg := range pages {
		if s := p.list.lookupResident(pg); s >= 0 && p.list.slots[s].locked {
			p.releaseLock(s)
		}
	}
}

// ForceRelease makes the operating system reclaim up to k locked pages
// without waiting for UNLOCK, as §3.2 permits under high memory
// contention ("the operating system is entitled to release the locked
// pages"). Pages are released in increasing lock priority — largest PJ
// first. It returns how many pages were released (and evicted).
func (p *CD) ForceRelease(k int) int {
	released := 0
	for released < k {
		s := p.list.lowestPriorityLocked()
		if s < 0 {
			break
		}
		victim := p.list.idx.pageOf(s)
		p.releaseLock(s)
		p.list.removeSlot(s)
		p.LockReleases++
		if p.Hooks != nil && p.Hooks.LockRelease != nil {
			p.Hooks.LockRelease(victim)
		}
		released++
	}
	return released
}

// Reclaim makes the operating system take back up to k page frames from
// the program immediately (a capacity shrink under multiprogramming
// pressure): unlocked pages are evicted LRU-first, then locked pages are
// force-released in increasing lock priority. It returns the number of
// frames actually reclaimed. A degraded policy reclaims nothing — its WS
// fallback is variable-allocation and sizes itself.
//
// Reclaim must be serialized with StepBlock/Ref on the same instance
// (see the CD concurrency contract); an overlapping call panics.
func (p *CD) Reclaim(k int) int {
	p.acquire("Reclaim")
	defer p.release()
	if p.degraded {
		return 0
	}
	taken := 0
	for taken < k {
		v, ok := p.list.evictLRU()
		if !ok {
			break
		}
		if p.onEvict != nil {
			p.onEvict(v)
		}
		taken++
	}
	if taken < k {
		taken += p.ForceRelease(k - taken)
	}
	return taken
}

// Resident implements Policy.
//
// CD is charged its resident set (the default Charge rule): an ALLOCATE
// grant is a ceiling up to which the operating system assigns frames on
// demand, not a reserved partition — page frames are handed out as the
// program faults them in and returned as directives shrink the ceiling.
// This matches the paper's sub-2-page average CD allocations (e.g. MAIN3's
// MEM of 1.11 pages), which are only possible under demand assignment.
func (p *CD) Resident() int {
	if p.degraded {
		return p.fallback.Resident()
	}
	return p.list.len()
}

// Reset implements Policy.
func (p *CD) Reset() {
	p.alloc = p.minAlloc
	p.list.reset()
	p.locked = 0
	// Truncate the per-site lock lists in place so a replay reuses their
	// backing arrays instead of reallocating them on every run.
	for site, ps := range p.locksBySite {
		p.locksBySite[site] = ps[:0]
	}
	p.SwapSignals = 0
	p.LockReleases = 0
	p.degraded = false
	p.degradedReason = ""
	// The fallback stays, unused until the next degradation, which
	// resets it and reuses its arrays.
}

// LockedPages returns the number of currently locked resident pages.
func (p *CD) LockedPages() int { return p.locked }

var _ Policy = (*CD)(nil)
var _ Policy = (*LRU)(nil)
var _ Policy = (*FIFO)(nil)
var _ Policy = (*WS)(nil)
var _ Policy = (*OPT)(nil)
