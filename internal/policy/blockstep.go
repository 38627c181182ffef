package policy

import "cdmm/internal/mem"

// BlockResult accumulates the per-reference indexes of block-stepped
// simulation. StepBlock *adds* into it (and max-merges MaxResident), so
// one zeroed BlockResult threads through a whole replay.
type BlockResult struct {
	// Faults is the number of faulting references.
	Faults int
	// MaxResident is the peak resident-set size observed.
	MaxResident int
	// VTime is Σ dt: one unit per reference plus FaultService per fault.
	VTime int64
	// MemSum is Σ charged, sampled after every reference.
	MemSum int64
	// SpaceTime is Σ charged × dt.
	SpaceTime int64
}

// BlockStepper is the simulator's one stepping contract: StepBlock
// replays a run of consecutive page references — a directive-free block
// of the trace — and accumulates the indexes into out. It must be
// exactly equivalent to calling StepRef for each page: same faults, same
// eviction sequence, same MemSum/SpaceTime/VTime, same running
// MaxResident. Batching exists so a policy can hoist loop-invariant work
// (interface dispatch, constant charges, degraded checks) out of the
// per-reference path. Policies without a StepBlock of their own are
// stepped through StepRef; Step picks the path.
type BlockStepper interface {
	StepBlock(pages []mem.Page, out *BlockResult)
}

// Step replays a run of consecutive page references under p and adds
// their indexes into out: in one StepBlock call when p has one, else one
// StepRef per page. It is how every replay loop steps any policy.
func Step(p Policy, pages []mem.Page, out *BlockResult) {
	if bst, ok := p.(BlockStepper); ok {
		bst.StepBlock(pages, out)
		return
	}
	for _, pg := range pages {
		StepRef(p, pg, out)
	}
}

// StepRef replays one reference under p by the per-reference charging
// rule every StepBlock folds: Ref, then Resident for the running peak,
// then the space-time charge (Charge), with one unit of virtual time per
// reference plus FaultService per fault. It adds the reference's indexes
// into out and reports whether it faulted and the pages charged.
func StepRef(p Policy, pg mem.Page, out *BlockResult) (fault bool, charged int) {
	fault = p.Ref(pg)
	dt := int64(1)
	if fault {
		out.Faults++
		dt += FaultService
	}
	r := p.Resident()
	if r > out.MaxResident {
		out.MaxResident = r
	}
	charged = r // Charge(p), without asking for Resident twice
	if c, ok := p.(Charger); ok {
		charged = c.Charged()
	}
	out.VTime += dt
	out.SpaceTime += int64(charged) * dt
	out.MemSum += int64(charged)
	return fault, charged
}

// fixedCharge folds a block's accumulation for fixed-partition policies
// (LRU, FIFO): the charge is the whole partition for every reference, so
// MemSum and SpaceTime are block-level products rather than per-ref sums.
func fixedCharge(out *BlockResult, frames, refs, faults, endResident int) {
	vt := int64(refs) + int64(faults)*FaultService
	out.Faults += faults
	out.VTime += vt
	out.MemSum += int64(frames) * int64(refs)
	out.SpaceTime += int64(frames) * vt
	if endResident > out.MaxResident {
		out.MaxResident = endResident
	}
}

// StepBlock implements BlockStepper. Within a directive-free block LRU's
// resident count never shrinks (a fault at capacity evicts one page and
// inserts one), so the end-of-block count is the block's maximum and the
// fixed charge folds into two multiplications. Hits go by the run
// through hitRun; a page it stops at is a sparse-map hit or a miss.
func (p *LRU) StepBlock(pages []mem.Page, out *BlockResult) {
	l := p.list
	faults := 0
	for i := 0; ; i++ {
		i += l.hitRun(pages[i:])
		if i == len(pages) {
			break
		}
		if s := l.lookupResident(pages[i]); s >= 0 {
			l.touchSlot(s)
			continue
		}
		p.refMiss(pages[i])
		faults++
	}
	fixedCharge(out, p.frames, len(pages), faults, l.n)
}

// StepBlock implements BlockStepper. Like LRU, FIFO's resident count is
// nondecreasing within a block and the charge is the fixed partition.
func (p *FIFO) StepBlock(pages []mem.Page, out *BlockResult) {
	faults := 0
	for _, pg := range pages {
		s := p.slotOf(pg)
		if p.in[s] {
			continue
		}
		p.refMiss(s)
		faults++
	}
	fixedCharge(out, p.frames, len(pages), faults, p.qlen)
}

// StepBlock implements BlockStepper. WS's resident set both grows and
// shrinks per reference, so the indexes accumulate per reference; the
// batching fuses Ref's callees (slot lookup, window push, expiry) into
// one loop with the clock, resident count and ring geometry held in
// locals, keeping the per-step order — membership test, stamp, push,
// expire — exactly as Ref produces it. Only the dense-table slot hit is
// inlined; sparse or unseen pages take the shared slotOf path (reloading
// the possibly-regrown slot state), and a full ring syncs the locals and
// defers to pushWin to grow. Expiry or eviction observers fall back to
// StepRef so hooks fire mid-step in Ref's exact order and may safely
// touch the policy.
func (p *WS) StepBlock(pages []mem.Page, out *BlockResult) {
	if p.onExpire != nil || p.onEvict != nil {
		for _, pg := range pages {
			StepRef(p, pg, out)
		}
		return
	}
	var faults int
	var vt, memSum, spaceTime int64
	maxRes := out.MaxResident
	seenAt := p.seenAt
	dense := p.idx.dense
	win := p.win
	mask := len(win) - 1
	winHead, winLen := p.winHead, p.winLen
	now, resident, tau := p.now, p.resident, p.tau
	for _, pg := range pages {
		now++
		s := int32(-1)
		if uint64(pg) < uint64(len(dense)) {
			s = dense[pg] - 1
		}
		if s < 0 {
			s = p.slotOf(pg)
			seenAt = p.seenAt // slotOf grows the slot state
			dense = p.idx.dense
		}
		dt := int64(1)
		if seenAt[s] == 0 {
			resident++
			faults++
			dt += FaultService
		}
		seenAt[s] = now + 1
		if winLen == len(win) {
			p.winHead, p.winLen = winHead, winLen
			p.pushWin(now, s)
			win, winHead, winLen = p.win, p.winHead, p.winLen
			mask = len(win) - 1
		} else {
			win[(winHead+winLen)&mask] = wsRecord{t: now, slot: s}
			winLen++
		}
		cutoff := now - tau
		for winLen > 0 {
			rec := win[winHead]
			if rec.t > cutoff {
				break
			}
			winHead = (winHead + 1) & mask
			winLen--
			if seenAt[rec.slot] == rec.t+1 {
				seenAt[rec.slot] = 0
				resident--
			}
		}
		if resident > maxRes {
			maxRes = resident
		}
		r := int64(resident)
		vt += dt
		spaceTime += r * dt
		memSum += r
	}
	p.now, p.resident = now, resident
	p.winHead, p.winLen = winHead, winLen
	out.Faults += faults
	out.VTime += vt
	out.MemSum += memSum
	out.SpaceTime += spaceTime
	out.MaxResident = maxRes
}

// StepBlock implements BlockStepper. CD degrades only on directive
// events, never inside a reference run, so the degraded check hoists out
// of the loop: a degraded policy hands the whole block to its WS
// fallback, and a healthy one runs the local-LRU path with the check
// paid once per block. The charge is the local resident count, which
// changes only on misses, so hits accumulate as flat segments — one
// multiply per fault-to-fault run instead of three per reference — and
// the nondecreasing count makes the end-of-block value the block max.
// Hits go by the run through hitRun; a page it stops at is a sparse-map
// hit or a miss.
func (p *CD) StepBlock(pages []mem.Page, out *BlockResult) {
	p.acquire("StepBlock")
	defer p.release()
	if p.degraded {
		p.fallback.StepBlock(pages, out)
		return
	}
	if len(pages) == 0 {
		return
	}
	l := p.list
	var faults int
	var vt, memSum, spaceTime int64
	n := int64(l.n) // resident count of the current flat segment
	var hits int64  // references accumulated at count n
	for i := 0; ; i++ {
		h := l.hitRun(pages[i:])
		hits += int64(h)
		if i += h; i == len(pages) {
			break
		}
		if s := l.lookupResident(pages[i]); s >= 0 {
			l.touchSlot(s)
			hits++
			continue
		}
		vt += hits
		spaceTime += n * hits
		memSum += n * hits
		hits = 0
		p.refMiss(pages[i])
		faults++
		n = int64(l.n)
		dt := int64(1 + FaultService)
		vt += dt
		spaceTime += n * dt
		memSum += n
	}
	vt += hits
	spaceTime += n * hits
	memSum += n * hits
	out.Faults += faults
	out.VTime += vt
	out.MemSum += memSum
	out.SpaceTime += spaceTime
	if l.n > out.MaxResident {
		out.MaxResident = l.n
	}
}

var (
	_ BlockStepper = (*LRU)(nil)
	_ BlockStepper = (*FIFO)(nil)
	_ BlockStepper = (*WS)(nil)
	_ BlockStepper = (*CD)(nil)
)
