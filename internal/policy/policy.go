// Package policy implements the memory-management policies the paper
// compares: LRU with fixed allocation, the Working Set policy (WS), and
// the Compiler Directed policy (CD) driven by ALLOCATE/LOCK/UNLOCK
// directives. FIFO and Belady's OPT are included as additional baselines
// for the ablation experiments.
//
// A Policy consumes the event stream of a trace: page references plus,
// for CD, the directive events. The vmsim package drives policies over
// traces and accumulates the paper's three performance indexes — page
// faults (PF), average memory (MEM) and space-time cost (ST).
package policy

import (
	"slices"

	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// FaultService is the page-fault service time in memory references,
// as assumed in the paper's §5 (2000 references per fault).
const FaultService = 2000

// Policy is a replacement/allocation policy processing one program's
// event stream.
type Policy interface {
	// Name identifies the policy for reports.
	Name() string
	// Ref processes a page reference and reports whether it faulted.
	Ref(p mem.Page) bool
	// Resident returns the current resident-set size in pages.
	Resident() int
	// Alloc processes an ALLOCATE directive (no-op for directive-blind
	// policies).
	Alloc(d trace.AllocDirective)
	// Lock processes a LOCK directive's resolved page set.
	Lock(ls trace.LockSet)
	// Unlock processes an UNLOCK directive's page set.
	Unlock(pages []mem.Page)
	// Reset returns the policy to its initial state so it can replay
	// another trace.
	Reset()
}

// Charger is implemented by policies whose space-time charge differs from
// their resident-set size. Fixed-partition policies (LRU, FIFO, OPT) are
// charged their whole partition for the program's entire virtual time —
// the frames are reserved whether or not they are filled. Variable-
// allocation policies (WS, CD) are charged what they actually hold: WS its
// working set, CD its demand-assigned resident set under the directive
// ceiling.
type Charger interface {
	// Charged returns the number of pages currently allocated to the
	// program for space-time accounting.
	Charged() int
}

// Charge returns the space-time charge for a policy: Charged() when
// implemented, the resident-set size otherwise.
func Charge(p Policy) int {
	if c, ok := p.(Charger); ok {
		return c.Charged()
	}
	return p.Resident()
}

// AsCD returns the CD policy underlying p, seeing through any chain of
// wrappers that expose Unwrap (decorators such as the simulator's
// invariant checker), or nil when p is not driven by a CD policy. The
// simulator uses it to surface CD-specific counters and hook points
// regardless of decoration.
func AsCD(p Policy) *CD {
	for p != nil {
		if cd, ok := p.(*CD); ok {
			return cd
		}
		u, ok := p.(interface{ Unwrap() Policy })
		if !ok {
			return nil
		}
		p = u.Unwrap()
	}
	return nil
}

// EvictObserver is implemented by policies that can report each page
// leaving the resident set to a hook. The fault-attribution runner
// installs a hook to charge evictions (and the faults they later cause)
// to the source site executing at eviction time; a nil hook — the
// default — costs one pointer check per eviction and nothing per
// reference, so the un-instrumented path is unaffected. The hook
// survives Reset; install nil to remove it.
type EvictObserver interface {
	SetEvictHook(func(pg mem.Page))
}

// PageHinter is implemented by policies whose dense page-indexed state
// benefits from knowing the trace's page universe before a replay: the
// simulator calls HintPages once per run so the first pass over a trace
// assigns page slots without growth reallocations. Hints are advisory —
// a policy must behave identically without one.
type PageHinter interface {
	// HintPages announces the largest page number the coming trace
	// references and its distinct-page count.
	HintPages(maxPage mem.Page, distinct int)
}

// noDirectives provides no-op directive handling for LRU/FIFO/WS/OPT.
type noDirectives struct{}

func (noDirectives) Alloc(trace.AllocDirective) {}
func (noDirectives) Lock(trace.LockSet)         {}
func (noDirectives) Unlock([]mem.Page)          {}

// lruList is an intrusive circular doubly-linked LRU list over dense
// page slots: each slot's links and lock state sit together in one
// lruSlot, so a reference costs a table lookup and a few pointer-free
// writes instead of a map probe and a heap node, and a new slot is one
// append. Used by the LRU and CD policies.
//
// The list is a ring: the tail's next is the head and the head's prev
// is the tail. Moving the tail to the MRU position is then a rotation
// of the two ends that writes no slot, and that is the commonest hit: a
// loop sweeping a window that fits its allocation always re-references
// the least recently used page. Every other move relinks between tail
// and head with no end-of-list branches, and the walks (evictLRU,
// lowestPriorityLocked, CD's AuditLocks and degrade) visit the n
// resident slots instead of stopping at a terminator. hitRun steps a
// run of resident pages with the list ends held in locals; reset()
// clears per-run state while keeping every allocation for the next
// replay.
type lruList struct {
	idx        pageIndex
	slots      []lruSlot
	head, tail int32 // most/least recently used; -1 when empty
	n          int   // resident count
}

// lruSlot is one page slot's list and lock state.
type lruSlot struct {
	prev, next int32 // ring links; prev == notIn marks non-resident
	pj         int32 // lock priority (valid while locked)
	site       int32 // lock site (valid while locked)
	locked     bool
}

// notIn in prev marks a slot as not resident, so the residency test
// reads the same slot the list operations are about to touch.
const notIn = -2

func newLRUList() *lruList {
	return &lruList{head: -1, tail: -1}
}

// hint pre-sizes the page index and the slot array (see PageHinter).
func (l *lruList) hint(maxPage mem.Page, distinct int) {
	if n := l.idx.hint(maxPage, distinct); n > len(l.slots) {
		l.slots = slices.Grow(l.slots, n-len(l.slots))
	}
}

// slotOf returns p's dense slot, appending a fresh slot when the index
// assigns one (slot ids are handed out sequentially).
func (l *lruList) slotOf(p mem.Page) int32 {
	s := l.idx.slot(p)
	if int(s) >= len(l.slots) {
		l.slots = append(l.slots, lruSlot{prev: notIn})
	}
	return s
}

func (l *lruList) len() int { return l.n }

// lookupResident returns p's slot when p is resident, -1 otherwise.
func (l *lruList) lookupResident(p mem.Page) int32 {
	if s := l.idx.lookup(p); s >= 0 && l.slots[s].prev != notIn {
		return s
	}
	return -1
}

// hitRun moves each page of the leading run of pages that are resident
// through the dense table to the MRU position, exactly as touchSlot
// would one by one, and returns the run's length. It stops at the first
// page it cannot serve as a hit — a miss, a first touch, or a page on
// the sparse map — and leaves that page to the caller. The list ends
// live in locals for the whole run, so a head hit writes nothing, a
// tail hit only rotates the locals, and any other hit writes six links.
func (l *lruList) hitRun(pages []mem.Page) int {
	dense, slots := l.idx.dense, l.slots
	head, tail := l.head, l.tail
	i := 0
	for ; i < len(pages); i++ {
		pg := int(pages[i])
		if uint(pg) >= uint(len(dense)) {
			break
		}
		s := dense[pg] - 1
		if s < 0 {
			break
		}
		p := slots[s].prev
		if p == notIn {
			break
		}
		if s == tail {
			head, tail = s, p
			continue
		}
		if s == head {
			continue
		}
		nx := slots[s].next
		slots[p].next = nx
		slots[nx].prev = p
		slots[s].prev = tail
		slots[s].next = head
		slots[head].prev = s
		slots[tail].next = s
		head = s
	}
	l.head, l.tail = head, tail
	return i
}

// touchSlot moves a resident slot to the MRU position: one step of
// hitRun, for a slot found some other way.
func (l *lruList) touchSlot(s int32) {
	switch s {
	case l.head:
	case l.tail:
		l.head, l.tail = s, l.slots[s].prev
	default:
		slots := l.slots
		p, nx := slots[s].prev, slots[s].next
		slots[p].next = nx
		slots[nx].prev = p
		slots[s].prev = l.tail
		slots[s].next = l.head
		slots[l.head].prev = s
		slots[l.tail].next = s
		l.head = s
	}
}

// insert makes p resident at the MRU position with a clean lock state.
// p must not be resident.
func (l *lruList) insert(p mem.Page) int32 {
	s := l.slotOf(p)
	if l.n == 0 {
		l.slots[s] = lruSlot{prev: s, next: s}
		l.tail = s
	} else {
		l.slots[s] = lruSlot{prev: l.tail, next: l.head}
		l.slots[l.head].prev = s
		l.slots[l.tail].next = s
	}
	l.head = s
	l.n++
	return s
}

// removeSlot evicts a resident slot.
func (l *lruList) removeSlot(s int32) {
	sl := &l.slots[s]
	if l.n == 1 {
		l.head, l.tail = -1, -1
	} else {
		p, nx := sl.prev, sl.next
		l.slots[p].next = nx
		l.slots[nx].prev = p
		if s == l.head {
			l.head = nx
		}
		if s == l.tail {
			l.tail = p
		}
	}
	sl.prev = notIn
	l.n--
}

// evictLRU removes and returns the least recently used unlocked page.
// It returns false if every resident page is locked.
func (l *lruList) evictLRU() (mem.Page, bool) {
	for i, s := 0, l.tail; i < l.n; i, s = i+1, l.slots[s].prev {
		if !l.slots[s].locked {
			l.removeSlot(s)
			return l.idx.pageOf(s), true
		}
	}
	return 0, false
}

// lowestPriorityLocked returns the locked slot with the largest PJ
// ("pages with higher PJ values have lower priority and they are unlocked
// first by the operating system"), or -1 if nothing is locked. Ties keep
// the slot closest to the LRU end, matching the historical scan order.
func (l *lruList) lowestPriorityLocked() int32 {
	best := int32(-1)
	for i, s := 0, l.tail; i < l.n; i, s = i+1, l.slots[s].prev {
		if l.slots[s].locked && (best < 0 || l.slots[s].pj > l.slots[best].pj) {
			best = s
		}
	}
	return best
}

// reset clears residency and lock state while keeping the page index and
// array capacity, so replaying another trace allocates nothing.
func (l *lruList) reset() {
	for i := range l.slots {
		l.slots[i].prev = notIn
		l.slots[i].locked = false
	}
	l.head, l.tail = -1, -1
	l.n = 0
}
