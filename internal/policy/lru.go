package policy

import (
	"fmt"

	"cdmm/internal/mem"
)

// LRU is the classic fixed-allocation least-recently-used policy: the
// program owns a fixed partition of Frames page frames and the least
// recently used page is replaced on a fault.
type LRU struct {
	noDirectives
	frames  int
	name    string
	list    *lruList
	onEvict func(mem.Page)
}

// NewLRU returns an LRU policy with the given fixed allocation.
func NewLRU(frames int) *LRU {
	if frames < 1 {
		frames = 1
	}
	return &LRU{frames: frames, name: fmt.Sprintf("LRU(m=%d)", frames), list: newLRUList()}
}

// Name implements Policy.
func (p *LRU) Name() string { return p.name }

// HintPages implements PageHinter.
func (p *LRU) HintPages(maxPage mem.Page, distinct int) { p.list.hint(maxPage, distinct) }

// SetEvictHook implements EvictObserver.
func (p *LRU) SetEvictHook(fn func(mem.Page)) { p.onEvict = fn }

// Ref implements Policy.
func (p *LRU) Ref(pg mem.Page) bool {
	if s := p.list.lookupResident(pg); s >= 0 {
		p.list.touchSlot(s)
		return false
	}
	p.refMiss(pg)
	return true
}

// refMiss faults pg in, evicting at capacity. Shared by Ref and
// StepBlock so the two paths cannot drift.
func (p *LRU) refMiss(pg mem.Page) {
	if p.list.len() >= p.frames {
		if v, ok := p.list.evictLRU(); ok && p.onEvict != nil {
			p.onEvict(v)
		}
	}
	p.list.insert(pg)
}

// Resident implements Policy.
func (p *LRU) Resident() int { return p.list.len() }

// Charged implements Charger: the whole fixed partition is allocated for
// the program's entire run.
func (p *LRU) Charged() int { return p.frames }

// Reset implements Policy.
func (p *LRU) Reset() { p.list.reset() }

// FIFO is fixed-allocation first-in-first-out replacement, an extra
// baseline (the paper cites FIFO as the other classic static policy).
// The arrival queue is a ring buffer over dense page slots, so a full
// partition replaces its oldest page without shifting or reallocating.
type FIFO struct {
	noDirectives
	frames  int
	name    string
	idx     pageIndex
	in      []bool  // per slot: currently resident
	queue   []int32 // ring of slots in arrival order; len is a power of two
	qhead   int     // index of the oldest entry
	qlen    int     // occupied entries
	onEvict func(mem.Page)
}

// NewFIFO returns a FIFO policy with the given fixed allocation.
func NewFIFO(frames int) *FIFO {
	if frames < 1 {
		frames = 1
	}
	return &FIFO{frames: frames, name: fmt.Sprintf("FIFO(m=%d)", frames)}
}

// Name implements Policy.
func (p *FIFO) Name() string { return p.name }

// HintPages implements PageHinter.
func (p *FIFO) HintPages(maxPage mem.Page, distinct int) { p.idx.hint(maxPage, distinct) }

// SetEvictHook implements EvictObserver.
func (p *FIFO) SetEvictHook(fn func(mem.Page)) { p.onEvict = fn }

// slotOf returns pg's dense slot, growing the residency array in step
// with the index.
func (p *FIFO) slotOf(pg mem.Page) int32 {
	s := p.idx.slot(pg)
	if int(s) >= len(p.in) {
		p.in = append(p.in, false)
	}
	return s
}

// push appends a slot at the ring's tail, doubling the buffer when full.
func (p *FIFO) push(s int32) {
	if p.qlen == len(p.queue) {
		grown := make([]int32, max(2*len(p.queue), 64))
		for i := 0; i < p.qlen; i++ {
			grown[i] = p.queue[(p.qhead+i)&(len(p.queue)-1)]
		}
		p.queue = grown
		p.qhead = 0
	}
	p.queue[(p.qhead+p.qlen)&(len(p.queue)-1)] = s
	p.qlen++
}

// Ref implements Policy.
func (p *FIFO) Ref(pg mem.Page) bool {
	s := p.slotOf(pg)
	if p.in[s] {
		return false
	}
	p.refMiss(s)
	return true
}

// refMiss faults slot s in, replacing the oldest arrival at capacity.
// Shared by Ref and StepBlock so the two paths cannot drift.
func (p *FIFO) refMiss(s int32) {
	if p.qlen >= p.frames {
		old := p.queue[p.qhead]
		p.qhead = (p.qhead + 1) & (len(p.queue) - 1)
		p.qlen--
		p.in[old] = false
		if p.onEvict != nil {
			p.onEvict(p.idx.pageOf(old))
		}
	}
	p.push(s)
	p.in[s] = true
}

// Resident implements Policy.
func (p *FIFO) Resident() int { return p.qlen }

// Charged implements Charger: the whole fixed partition is allocated.
func (p *FIFO) Charged() int { return p.frames }

// Reset implements Policy.
func (p *FIFO) Reset() {
	for i := range p.in {
		p.in[i] = false
	}
	p.qhead, p.qlen = 0, 0
}
