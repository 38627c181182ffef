package policy

import (
	"fmt"
	"math/bits"
	"slices"

	"cdmm/internal/mem"
)

// WS is Denning's Working Set policy: the resident set at virtual time t
// is exactly the set of pages referenced in the window (t-τ, t], where
// virtual time advances one unit per reference. A reference to a page
// outside the working set faults; pages leave the set when unreferenced
// for τ time units.
//
// Per-page state is kept in dense slot arrays and the expiry window in a
// ring buffer, so the steady-state reference path touches no maps and
// allocates nothing.
type WS struct {
	noDirectives
	tau  int64
	name string
	now  int64
	idx  pageIndex
	// seenAt[s] is 1 + the latest reference time of slot s while its page
	// is in the working set, 0 when it is not.
	seenAt []int64
	// win is a ring buffer of (time, slot) reference records used to
	// expire pages lazily; resident tracks |W(t, τ)| incrementally.
	win             []wsRecord
	winHead, winLen int
	resident        int

	// onExpire, when set, is called with the slot of each page that
	// leaves the working set (used by the Damped WS wrapper).
	onExpire func(int32)
	// onEvict is the page-granular expiry hook (see EvictObserver).
	onEvict func(mem.Page)
}

type wsRecord struct {
	t    int64
	slot int32
}

// NewWS returns a Working Set policy with window size tau (in references).
func NewWS(tau int) *WS {
	if tau < 1 {
		tau = 1
	}
	return &WS{tau: int64(tau), name: fmt.Sprintf("WS(tau=%d)", tau)}
}

// Name implements Policy.
func (p *WS) Name() string { return p.name }

// Tau returns the window size.
func (p *WS) Tau() int { return int(p.tau) }

// HintPages implements PageHinter.
func (p *WS) HintPages(maxPage mem.Page, distinct int) {
	if n := p.idx.hint(maxPage, distinct); n > len(p.seenAt) {
		p.seenAt = slices.Grow(p.seenAt, n-len(p.seenAt))
	}
}

// SetEvictHook implements EvictObserver: the hook fires when a page
// expires out of the working set.
func (p *WS) SetEvictHook(fn func(mem.Page)) { p.onEvict = fn }

// slotOf returns pg's dense slot, growing the state array in step with
// the index.
func (p *WS) slotOf(pg mem.Page) int32 {
	s := p.idx.slot(pg)
	if int(s) >= len(p.seenAt) {
		p.seenAt = append(p.seenAt, 0)
	}
	return s
}

// growWin grows the ring to the smallest power of two (at least 64)
// holding n records, keeping the records it holds.
func (p *WS) growWin(n int) {
	if n <= len(p.win) {
		return
	}
	grown := make([]wsRecord, max(64, 1<<bits.Len(uint(n-1))))
	for i := 0; i < p.winLen; i++ {
		grown[i] = p.win[(p.winHead+i)&(len(p.win)-1)]
	}
	p.win = grown
	p.winHead = 0
}

// pushWin appends a record at the ring's tail, doubling when full.
func (p *WS) pushWin(t int64, s int32) {
	if p.winLen == len(p.win) {
		p.growWin(p.winLen + 1)
	}
	p.win[(p.winHead+p.winLen)&(len(p.win)-1)] = wsRecord{t: t, slot: s}
	p.winLen++
}

// Ref implements Policy. A reference at time t faults iff its page is not
// in W(t-1, τ), i.e. iff the backward inter-reference interval exceeds τ
// (Denning's definition); after the reference, the resident set is W(t, τ).
//
// The membership test needs the window expired to time t-1, which the
// trailing expireTo of the previous reference already established: both
// use the cutoff (t-1)-τ, and the only records pushed in between (Warm's,
// stamped at the current instant) can never be that old.
func (p *WS) Ref(pg mem.Page) bool {
	p.now++
	s := p.slotOf(pg)
	resident := p.seenAt[s] != 0
	if !resident {
		p.resident++
	}
	p.seenAt[s] = p.now + 1
	p.pushWin(p.now, s)
	p.expireTo(p.now) // establish W(t, τ) for Resident()
	return !resident
}

// Warm seeds the working set with pages treated as referenced at the
// current virtual time without advancing the clock or counting faults. A
// degraded CD policy uses it to hand its resident set to the WS fallback
// so the hand-off itself charges no refault storm. Pages already recorded
// at the current instant are skipped (a duplicate window record for the
// same (t, page) pair would double-decrement the resident count when it
// expires).
func (p *WS) Warm(pages []mem.Page) {
	for _, pg := range pages {
		s := p.slotOf(pg)
		v := p.seenAt[s]
		if v == p.now+1 {
			continue
		}
		if v == 0 {
			p.resident++
		}
		p.seenAt[s] = p.now + 1
		p.pushWin(p.now, s)
	}
}

// expireTo removes pages whose last reference fell outside the window
// (x - τ, x].
func (p *WS) expireTo(x int64) {
	cutoff := x - p.tau // records with t <= cutoff are outside the window
	for p.winLen > 0 {
		rec := p.win[p.winHead]
		if rec.t > cutoff {
			break
		}
		p.winHead = (p.winHead + 1) & (len(p.win) - 1)
		p.winLen--
		if p.seenAt[rec.slot] == rec.t+1 {
			// No later reference kept the page in the working set.
			p.seenAt[rec.slot] = 0
			p.resident--
			if p.onExpire != nil {
				p.onExpire(rec.slot)
			}
			if p.onEvict != nil {
				p.onEvict(p.idx.pageOf(rec.slot))
			}
		}
	}
}

// Resident implements Policy.
func (p *WS) Resident() int { return p.resident }

// Reset implements Policy.
func (p *WS) Reset() {
	p.now = 0
	for i := range p.seenAt {
		p.seenAt[i] = 0
	}
	p.winHead, p.winLen = 0, 0
	p.resident = 0
}
