package policy

import (
	"fmt"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// DefaultFallbackTau is the WS window (in references) a degraded CD policy
// falls back to. It sits in the middle of the paper's §5 WS sweep range,
// a directive-blind setting that needs no information from the (now
// distrusted) compiler.
const DefaultFallbackTau = 500

// CheckConfig enables directive validation on a CD policy. When CD.Check
// is non-nil, every incoming ALLOCATE/LOCK/UNLOCK execution is validated
// against the §3 directive contract before it is trusted; the first
// violation degrades the policy for the remainder of the run (see
// CD.Degraded). A nil Check reproduces the historical trusting behavior
// bit for bit.
type CheckConfig struct {
	// MaxPage, when > 0, is the program's addressable page count V: any
	// directive that requests more than MaxPage pages or locks a page
	// outside [0, MaxPage) violates the contract. Zero disables the
	// address-space checks (priority-shape checks still apply).
	MaxPage int
}

// Degraded reports whether a directive-contract violation has switched
// the policy to its WS fallback for the remainder of the run.
func (p *CD) Degraded() bool { return p.degraded }

// DegradedReason returns the first contract violation observed, or ""
// when the policy is not degraded.
func (p *CD) DegradedReason() string { return p.degradedReason }

// validateAlloc checks an ALLOCATE execution against the contract.
func (p *CD) validateAlloc(d trace.AllocDirective) error {
	return directive.ValidateArms(d.Arms, p.Check.MaxPage)
}

// validateLock checks a LOCK execution against the contract.
func (p *CD) validateLock(ls trace.LockSet) error {
	return directive.ValidateLockSet(ls.PJ, ls.Site, pageInts(ls.Pages), p.Check.MaxPage)
}

// validateUnlock checks an UNLOCK execution against the contract.
func (p *CD) validateUnlock(pages []mem.Page) error {
	return directive.ValidateUnlockSet(pageInts(pages), p.Check.MaxPage)
}

// pageInts widens a page list for the directive-level validators.
func pageInts(pages []mem.Page) []int {
	if len(pages) == 0 {
		return nil
	}
	out := make([]int, len(pages))
	for i, pg := range pages {
		out[i] = int(pg)
	}
	return out
}

// degrade switches the policy into graceful degradation: every lock is
// released (a policy that no longer trusts its directive stream must not
// keep pages pinned on its say-so), the current resident set is carried
// into a WS fallback so no refault storm is charged to the transition,
// and all further directives become no-ops. Idempotent: only the first
// violation is recorded. The fallback is built once per policy, its
// window ring sized for τ plus the carried set, and reset for each later
// degradation.
func (p *CD) degrade(reason string) {
	if p.degraded {
		return
	}
	p.degraded = true
	p.degradedReason = reason
	resident := make([]mem.Page, 0, p.list.len())
	// LRU→MRU for a stable seed order.
	for i, s := 0, p.list.tail; i < p.list.len(); i, s = i+1, p.list.slots[s].prev {
		p.list.slots[s].locked = false
		resident = append(resident, p.list.idx.pageOf(s))
	}
	p.locked = 0
	for site, ps := range p.locksBySite {
		p.locksBySite[site] = ps[:0]
	}
	ws := p.fallback
	if ws == nil {
		ws = NewWS(DefaultFallbackTau)
		// The fallback sees at least the pages the CD has indexed.
		ws.HintPages(mem.Page(len(p.list.idx.dense)-1), p.list.idx.size())
	} else {
		ws.Reset()
	}
	// The window never holds more than τ+1 references plus the warm set.
	ws.growWin(DefaultFallbackTau + 1 + len(resident))
	ws.Warm(resident)
	ws.SetEvictHook(p.onEvict)
	p.fallback = ws
	if p.Hooks != nil && p.Hooks.Degrade != nil {
		p.Hooks.Degrade(reason)
	}
}

// AuditLocks verifies CD's internal lock bookkeeping: the locked counter
// must equal the number of locked resident nodes, and every locked node
// must be recorded under its own site. (A site's recorded list may hold
// extra pages whose lock has since been taken over by another site; that
// is expected bookkeeping slack, not corruption.) The checked simulator
// runs this after every directive event.
func (p *CD) AuditLocks() error {
	locked := 0
	for i, s := 0, p.list.head; i < p.list.len(); i, s = i+1, p.list.slots[s].next {
		if !p.list.slots[s].locked {
			continue
		}
		locked++
		page := p.list.idx.pageOf(s)
		found := false
		for _, pg := range p.locksBySite[int(p.list.slots[s].site)] {
			if pg == page {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("locked page %d not recorded under site %d", page, int(p.list.slots[s].site))
		}
	}
	if locked != p.locked {
		return fmt.Errorf("locked counter %d but %d locked resident pages", p.locked, locked)
	}
	return nil
}
