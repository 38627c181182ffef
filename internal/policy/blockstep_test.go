package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"cdmm/internal/mem"
)

// Block-stepping differential: StepBlock must be *exactly* the fold of
// StepRef over the block — same faults, same eviction sequence, same
// MemSum/SpaceTime/VTime, same running MaxResident — and both must match
// the map-based oracle driven through the generic Ref/Resident/Charge
// path. The streams reuse the randomized op generator of
// differential_test.go (locality + wild sparse pages + CD directives)
// and the blocks are cut at every directive and at randomized caps, so
// short blocks, directive-only blocks and cap-split runs are all hit.

// accumGeneric advances out by one reference through the generic
// three-call path, restated independently of StepRef for the oracle.
func accumGeneric(p Policy, pg mem.Page, out *BlockResult) {
	fault := p.Ref(pg)
	dt := int64(1)
	if fault {
		out.Faults++
		dt += FaultService
	}
	if r := p.Resident(); r > out.MaxResident {
		out.MaxResident = r
	}
	m := Charge(p)
	out.VTime += dt
	out.SpaceTime += int64(m) * dt
	out.MemSum += int64(m)
}

// stepRefs is the block stepping of a policy without a StepBlock of its
// own: StepRef once per reference, as the simulator replays it.
type stepRefs struct{ p Policy }

func (s stepRefs) StepBlock(pages []mem.Page, out *BlockResult) {
	for _, pg := range pages {
		StepRef(s.p, pg, out)
	}
}

// blockStepper returns p's own StepBlock, or stepRefs for a policy
// without one.
func blockStepper(p Policy) BlockStepper {
	if bst, ok := p.(BlockStepper); ok {
		return bst
	}
	return stepRefs{p}
}

// collectEvictions installs an eviction recorder when the policy
// observes evictions; the returned slice pointer fills as the run goes.
func collectEvictions(p Policy) *[]mem.Page {
	seq := &[]mem.Page{}
	if eo, ok := p.(EvictObserver); ok {
		eo.SetEvictHook(func(pg mem.Page) { *seq = append(*seq, pg) })
	}
	return seq
}

// runBlockDiff replays ops through four instances — block-stepped with
// an eviction recorder, block-stepped bare (no hooks, so policies with
// an observer-free fast path take it), single-stepped, and the map
// oracle — and asserts identical indexes and identical eviction
// sequences. maxBlock caps the reference runs handed to StepBlock (0 =
// cut only at directives and opCut), mirroring CursorOpts.MaxBlock.
func runBlockDiff(t *testing.T, blocked, bare, stepped, oracle Policy, ops []diffOp, maxBlock int, tag string) {
	t.Helper()
	bst := blockStepper(blocked)
	bareBst := blockStepper(bare)
	evB := collectEvictions(blocked)
	evS := collectEvictions(stepped)

	var rb, rbb, rs, ro BlockResult
	var pages []mem.Page
	flush := func() {
		if len(pages) == 0 {
			return
		}
		bst.StepBlock(pages, &rb)
		bareBst.StepBlock(pages, &rbb)
		pages = pages[:0]
	}
	for _, op := range ops {
		switch op.kind {
		case opRef:
			pages = append(pages, op.page)
			if maxBlock > 0 && len(pages) >= maxBlock {
				flush()
			}
			StepRef(stepped, op.page, &rs)
			accumGeneric(oracle, op.page, &ro)
		case opAlloc:
			flush()
			blocked.Alloc(op.alloc)
			bare.Alloc(op.alloc)
			stepped.Alloc(op.alloc)
			oracle.Alloc(op.alloc)
		case opLock:
			flush()
			blocked.Lock(op.lock)
			bare.Lock(op.lock)
			stepped.Lock(op.lock)
			oracle.Lock(op.lock)
		case opUnlock:
			flush()
			blocked.Unlock(op.unlock)
			bare.Unlock(op.unlock)
			stepped.Unlock(op.unlock)
			oracle.Unlock(op.unlock)
		case opCut:
			flush()
		}
	}
	flush()

	if rb != rs {
		t.Fatalf("%s: StepBlock %+v != StepRef %+v", tag, rb, rs)
	}
	if rb != ro {
		t.Fatalf("%s: StepBlock %+v != oracle %+v", tag, rb, ro)
	}
	if rbb != rb {
		t.Fatalf("%s: unhooked StepBlock %+v != hooked StepBlock %+v", tag, rbb, rb)
	}
	if len(*evB) != len(*evS) {
		t.Fatalf("%s: eviction counts differ: block=%d step=%d", tag, len(*evB), len(*evS))
	}
	for i := range *evB {
		if (*evB)[i] != (*evS)[i] {
			t.Fatalf("%s: eviction %d differs: block=%d step=%d", tag, i, (*evB)[i], (*evS)[i])
		}
	}
}

// blockCases are the policies the block differential covers: every
// policy block-steps, through its own StepBlock or through StepRef.
func blockCases() []diffCase { return diffCases() }

// TestBlockStepCoversAllSteppers guards the case list: every policy of
// the differential suite is block-stepped against StepRef, and the
// policies the paper's tables replay (LRU, FIFO, WS, CD) keep a batched
// StepBlock of their own, or the hot path silently loses its batching.
func TestBlockStepCoversAllSteppers(t *testing.T) {
	if len(blockCases()) != len(diffCases()) {
		t.Fatal("block differential skips policies of the differential suite")
	}
	for _, p := range []Policy{NewLRU(4), NewFIFO(4), NewWS(7), NewCD(SelectLevel(1), 2)} {
		if _, ok := p.(BlockStepper); !ok {
			t.Errorf("%s: hot-path policy without its own StepBlock", p.Name())
		}
	}
}

// TestBlockStepMatchesStepAndOracle is the core randomized differential
// across seeds and block caps, including the degenerate one-reference
// blocks and directive-heavy CD streams.
func TestBlockStepMatchesStepAndOracle(t *testing.T) {
	for _, tc := range blockCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				r := rand.New(rand.NewSource(seed))
				pages := genPages(r, 20+r.Intn(40))
				ops := genOps(r, 3000, pages, tc.directives)
				for _, maxBlock := range []int{0, 1, 7, 256} {
					runBlockDiff(t, tc.dense(), tc.dense(), tc.dense(), tc.oracle(), ops, maxBlock,
						fmt.Sprintf("seed=%d/max=%d", seed, maxBlock))
				}
			}
		})
	}
}

// TestBlockStepResetReuse replays stream A block-stepped, Resets, and
// replays stream B — the engine's policy-reuse pattern — against fresh
// single-stepped and oracle twins.
func TestBlockStepResetReuse(t *testing.T) {
	for _, tc := range blockCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(99))
			opsA := genOps(r, 2000, genPages(r, 30), tc.directives)
			opsB := genOps(r, 2000, genPages(r, 50), tc.directives)

			used := tc.dense()
			usedBst := blockStepper(used)
			var warm BlockResult
			for _, op := range opsA {
				if op.kind == opRef {
					usedBst.StepBlock([]mem.Page{op.page}, &warm)
				}
			}
			used.Reset()
			runBlockDiff(t, used, tc.dense(), tc.dense(), tc.oracle(), opsB, 64, "B-after-Reset")
		})
	}
}

// TestBlockStepSparseDenseOverlap walks StepBlock through the pageIndex
// sparse-then-dense growth window (see TestPolicySparseDenseOverlap).
func TestBlockStepSparseDenseOverlap(t *testing.T) {
	for _, tc := range blockCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(23))
			ops := overlapOps(r, tc.directives)
			runBlockDiff(t, tc.dense(), tc.dense(), tc.dense(), tc.oracle(), ops, 0, "overlap")
		})
	}
}
