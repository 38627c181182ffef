package sweep

import (
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// fenwickDistances is the stack pass NewLRU took before the word bitset,
// kept as its oracle: the same histogram and distinct-page count as
// lruStack.distances, from a Fenwick tree over reference positions that
// every reference walks four times.
func fenwickDistances(src trace.Source) ([]int, int, error) {
	meta := src.Meta()
	span, _ := pageSpan(meta)
	lastPos := make([]int, span)
	distHist := make([]int, meta.Distinct+2)

	// Fenwick capacity: room for ~4 live positions per distinct page
	// between compressions.
	n := 1024
	for n < 4*(meta.Distinct+2) {
		n *= 2
	}
	bit := newFenwick(n)
	cur := 1
	v := 0

	// byPos is compact's work buffer: page+1 at each live position, else 0.
	var byPos []int
	compact := func() {
		// Renumber the live positions 1..v in order and rebuild.
		if len(byPos) < cur {
			byPos = make([]int, cur)
		}
		live := 0
		for pg, pos := range lastPos {
			if pos != 0 {
				byPos[pos] = pg + 1
				live++
			}
		}
		for n < 4*(live+2) {
			n *= 2
			bit = newFenwick(n)
		}
		clear(bit.tree)
		k := 0
		for pos, pg := range byPos[:cur] {
			if pg != 0 {
				byPos[pos] = 0
				k++
				lastPos[pg-1] = k
				bit.add(k, 1)
			}
		}
		cur = k + 1
	}

	err := walkRefs(src, func(pages []mem.Page) {
		for _, pg := range pages {
			p := int(pg)
			if prev := lastPos[p]; prev != 0 {
				// Distinct pages referenced strictly after prev: set
				// bits in (prev, cur).
				d := bit.sum(cur-1) - bit.sum(prev) + 1
				if d >= len(distHist) {
					d = len(distHist) - 1
				}
				distHist[d]++
				bit.add(prev, -1)
			} else {
				v++
			}
			bit.add(cur, 1)
			lastPos[p] = cur
			cur++
			if cur > n {
				compact()
			}
		}
	})
	return distHist, v, err
}

// fenwick is a basic binary indexed tree over 1..n.
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// sum returns the prefix sum over [1, i].
func (f *fenwick) sum(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}
