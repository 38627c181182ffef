// Package sweep is the one-pass curve plane: whole miss-ratio and
// working-set curves from a single traversal of a reference stream,
// where per-cell simulation would replay the trace once per curve point.
//
// Three engines ride the block-stepped trace plane (trace.Source):
//
//   - LRUCurve: Mattson's stack algorithm over a word bitset of live
//     reference positions, with a Fenwick tree over its words for the
//     long distances. One traversal yields the exact reuse-distance
//     histogram, hence PF/MEM/ST for *every* LRU allocation m in [1, V].
//     Periodic position compaction bounds the stack at O(V) regardless
//     of stream length, so multi-GB CDT3 files sweep in bounded memory.
//
//   - WS: Denning's windowed recurrence. One pass builds the backward
//     inter-reference-interval and forward re-reference-distance
//     histograms (PF(τ) and MemSum(τ) for all τ at once); a second pass
//     adds only what the histograms cannot give, the working set summed
//     at fault instants and its peak, for an arbitrary τ grid. Its scan
//     keeps a one-word mask of which of the last 64 references are
//     still their page's latest, so a window up to 64 reads its working
//     set as a popcount at each fault; only references the mask
//     outlives enter the window-major queues of the larger windows,
//     where each window hands the references it expires on to the next,
//     since a page that outlives a window outlives every smaller one.
//     Together they yield the exact per-τ Result (including the
//     fault-coupled space-time integral) in O(R + Σ_{τ≤64} PF(τ) +
//     survivors + Σ_{τ>64} (PF(τ) + expiries(τ))) instead of
//     O(R × |grid|).
//
//   - Multi: a lockstep grouped pass for FIFO capacity grids, which
//     have no closed form. One cursor feeds every policy's StepBlock per
//     block, so a streamed trace file is decoded once for the whole grid
//     while each policy's per-reference decisions stay exactly those of
//     a solo replay.
//
// Every engine is differentially tested against per-cell vmsim replay;
// the per-cell path remains available (engine cell mode, one vmsim.Run
// per curve point) as the oracle.
package sweep

import (
	"fmt"

	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// renumberBlock caps the blocks of a renumbered walk, and so the buffer
// its renumbered pages are handed over in.
const renumberBlock = 1 << 12

// pageSpan returns the length of the per-page tables an engine keeps
// over a stream: every page walkRefs hands over is below it. Pages
// index the tables directly while the header's MaxPage is near its
// distinct-page count, as on every workload trace; past that, walkRefs
// renumbers them (renumber), so a lone reference to page 2^31−2 costs
// one table entry instead of 2^31.
func pageSpan(meta trace.Meta) (span int, renumber bool) {
	if n := int(meta.MaxPage) + 2; n <= max(8*meta.Distinct, 1<<10) {
		return n, false
	}
	return meta.Distinct + 2, true
}

// walkRefs streams the source's reference string through fn block by
// block, ignoring directive events (the closed-form engines model
// directive-blind policies, matching their per-cell oracles which replay
// the directive-free view). When pageSpan renumbers, fn sees each page
// as its first-touch ordinal: the engines depend on page identity alone,
// so their curves are unchanged.
func walkRefs(src trace.Source, fn func(pages []mem.Page)) error {
	meta := src.Meta()
	if _, renumber := pageSpan(meta); !renumber {
		return trace.Walk(src, trace.CursorOpts{}, func(b trace.Block) bool {
			fn(b.Pages)
			return true
		})
	}
	ids := map[mem.Page]mem.Page{}
	var buf []mem.Page
	var err error
	werr := trace.Walk(src, trace.CursorOpts{MaxBlock: renumberBlock}, func(b trace.Block) bool {
		buf = buf[:0]
		for _, pg := range b.Pages {
			id, ok := ids[pg]
			if !ok {
				if len(ids) == meta.Distinct {
					err = fmt.Errorf("sweep: %s references more than the %d distinct pages it declares", meta.Name, meta.Distinct)
					return false
				}
				id = mem.Page(len(ids))
				ids[pg] = id
			}
			buf = append(buf, id)
		}
		fn(buf)
		return true
	})
	if werr != nil {
		return werr
	}
	return err
}
