// Package advisor turns the paper's §2 observations into compiler
// diagnostics: row-wise array references (the column-major storage
// anti-pattern whose pages are "not likely to be referenced during the
// next iteration") are flagged with a loop-interchange suggestion, and
// loops whose locality exceeds a memory budget are reported. The paper
// stops at describing localities to the operating system; this pass is the
// complementary compiler-side use of the same analysis — advising the
// programmer to restructure so the localities themselves shrink.
package advisor

import (
	"fmt"
	"sort"
	"strings"

	"cdmm/internal/locality"
	"cdmm/internal/sem"
)

// Kind classifies a finding.
type Kind int

const (
	// InterchangeCandidate: a 2-D array is traversed row-wise by an inner
	// loop while the row index comes from an outer loop in the same nest;
	// interchanging the two loops would make the traversal column-wise.
	InterchangeCandidate Kind = iota
	// RowWiseTraversal: a row-wise traversal whose loops cannot simply be
	// interchanged (the row subscript is loop-invariant or comes from a
	// non-adjacent level); flagged informationally.
	RowWiseTraversal
	// LargeLocality: a loop's locality exceeds the advisory budget.
	LargeLocality
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case InterchangeCandidate:
		return "interchange-candidate"
	case RowWiseTraversal:
		return "row-wise-traversal"
	case LargeLocality:
		return "large-locality"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Finding is one diagnostic.
type Finding struct {
	Kind  Kind
	Array string    // for the reference findings
	Loop  *sem.Loop // the loop the finding is attached to
	Inner *sem.Loop // for interchange: the traversal loop
	Outer *sem.Loop // for interchange: the row-selecting loop
	Pages int       // for LargeLocality: the locality size
	Line  int
	Msg   string
}

// localityBudget is the page count above which a loop's locality is
// reported: one quarter of an era-typical 64 KiB memory at 256-byte
// pages.
const localityBudget = 64

// Analyze produces the findings for an analyzed program, ordered by
// source line.
func Analyze(a *locality.Analysis) []Finding {
	var out []Finding

	for _, g := range a.Groups {
		if g.Order != sem.OrderRowWise {
			continue
		}
		line := g.Refs[0].Ref.Line
		inner := g.Deep // drives the column subscript (the traversal)
		outer := g.Shallow
		if outer != nil && inner.Parent == outer && sameNestSimple(inner) {
			out = append(out, Finding{
				Kind:  InterchangeCandidate,
				Array: g.Array,
				Loop:  g.Loop,
				Inner: inner,
				Outer: outer,
				Line:  line,
				Msg: fmt.Sprintf(
					"line %d: %s is traversed row-wise by the %s/%s nest; interchanging the loops makes the traversal column-wise (stride 1)",
					line, g.Array, outer.Label(), inner.Label()),
			})
		} else {
			out = append(out, Finding{
				Kind:  RowWiseTraversal,
				Array: g.Array,
				Loop:  g.Loop,
				Inner: inner,
				Outer: outer,
				Line:  line,
				Msg: fmt.Sprintf(
					"line %d: %s is referenced row-wise in %s (column-major storage walks with stride M); consider restructuring",
					line, g.Array, g.Loop.Label()),
			})
		}
	}

	for _, l := range a.Info.Loops {
		if x := a.ActiveSize(l); x > localityBudget {
			out = append(out, Finding{
				Kind:  LargeLocality,
				Loop:  l,
				Pages: x,
				Line:  l.Stmt.Line,
				Msg: fmt.Sprintf(
					"line %d: %s requires a %d-page locality (budget %d); its ALLOCATE request may be hard to grant under contention",
					l.Stmt.Line, l.Label(), x, localityBudget),
			})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// sameNestSimple reports whether the loop is a plain innermost loop whose
// body carries no other nested loops — the easy interchange case. (A full
// dependence test is out of scope; the advisory is conservative about
// when it uses the word "interchange".)
func sameNestSimple(l *sem.Loop) bool { return l.IsLeaf() }

// Render formats the findings as compiler-style diagnostics.
func Render(findings []Finding) string {
	if len(findings) == 0 {
		return "no findings\n"
	}
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&b, "[%s] %s\n", f.Kind, f.Msg)
	}
	return b.String()
}
