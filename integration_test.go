// End-to-end integration and property tests: randomly generated (but
// always valid) FORTRAN-subset programs are pushed through the entire
// pipeline — parse, semantic analysis, locality analysis, directive
// insertion, trace generation, simulation — checking cross-cutting
// invariants that no single package can see.
package cdmm_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cdmm/internal/core"
	"cdmm/internal/fortran"
	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// progGen builds random valid programs: a handful of arrays and a random
// loop nest whose subscripts stay in bounds by construction.
type progGen struct {
	seed uint64
	b    strings.Builder
	vars []string
	next int
}

func (g *progGen) rng() uint64 {
	g.seed = g.seed*6364136223846793005 + 1442695040888963407
	return g.seed >> 33
}

func (g *progGen) freshVar() string {
	names := []string{"I", "J", "K", "L", "M", "N1", "I2", "J2", "K2", "L2"}
	v := names[g.next%len(names)]
	g.next++
	g.vars = append(g.vars, v)
	return v
}

// generate returns the source of a random program. Arrays: A(64,8) (8
// pages), B(128,4) (8 pages), V(256) (4 pages), W(96) (2 pages). Loop
// bounds stay within the smallest dimensions used.
func generate(seed uint64) string {
	g := &progGen{seed: seed}
	g.b.WriteString("PROGRAM RAND\nDIMENSION A(64,8), B(128,4), V(256), W(96)\n")
	n := int(g.rng()%2) + 1
	for i := 0; i < n; i++ {
		g.nest(0)
	}
	g.b.WriteString("END\n")
	return g.b.String()
}

func (g *progGen) nest(depth int) {
	v := g.freshVar()
	bound := 4 + int(g.rng()%4) // 4..7: safe for every dimension
	pad := strings.Repeat("  ", depth)
	fmt.Fprintf(&g.b, "%sDO %s = 1, %d\n", pad, v, bound)
	g.stmt(depth + 1)
	if depth < 2 && g.rng()%2 == 0 {
		g.nest(depth + 1)
		g.stmt(depth + 1)
	}
	fmt.Fprintf(&g.b, "%sEND DO\n", pad)
	g.vars = g.vars[:len(g.vars)-1]
}

// stmt emits a random in-bounds assignment using the live loop variables.
func (g *progGen) stmt(depth int) {
	pad := strings.Repeat("  ", depth)
	v1 := g.vars[int(g.rng())%len(g.vars)]
	v2 := g.vars[int(g.rng())%len(g.vars)]
	switch g.rng() % 5 {
	case 0:
		fmt.Fprintf(&g.b, "%sA(%s,%s) = A(%s,%s) + 1.0\n", pad, v1, v2, v1, v2)
	case 1:
		fmt.Fprintf(&g.b, "%sB(%s, MOD(%s, 4) + 1) = FLOAT(%s)\n", pad, v1, v2, v1)
	case 2:
		fmt.Fprintf(&g.b, "%sV(%s) = V(%s) * 0.5\n", pad, v1, v2)
	case 3:
		fmt.Fprintf(&g.b, "%sW(%s) = A(%s,1) + V(%s)\n", pad, v1, v2, v1)
	default:
		fmt.Fprintf(&g.b, "%sV(%s + 8) = W(%s) - B(%s,2)\n", pad, v1, v2, v1)
	}
}

func TestPipelineInvariantsOnRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := generate(seed)
			prog, err := core.CompileSource("RAND", src)
			if err != nil {
				t.Fatalf("pipeline failed on generated program:\n%s\n%v", src, err)
			}

			// Invariant: the formatted AST reparses to the same formatted
			// text (printer round trip at program scale).
			out1 := fortran.Format(prog.AST)
			re, err := fortran.Parse(out1)
			if err != nil {
				t.Fatalf("formatted output does not reparse: %v\n%s", err, out1)
			}
			if out2 := fortran.Format(re); out2 != out1 {
				t.Fatalf("format not idempotent:\n%s\n---\n%s", out1, out2)
			}

			tr, err := prog.Trace()
			if err != nil {
				t.Fatalf("trace: %v\n%s", err, src)
			}
			// Invariant: every referenced page lies inside the address space.
			for _, p := range tr.Pages() {
				if int(p) < 0 || int(p) >= prog.V() {
					t.Fatalf("page %d outside V=%d", p, prog.V())
				}
			}
			if tr.Distinct > prog.V() {
				t.Fatalf("distinct pages %d exceed V %d", tr.Distinct, prog.V())
			}

			// Invariant: CD never faults less than compulsory, and honoring
			// a higher stratum never increases faults.
			prevPF := 1 << 30
			for lvl := 1; lvl <= prog.MaxPI(); lvl++ {
				res := vmsim.Run(tr, policy.NewCD(policy.SelectLevel(lvl), 2))
				if res.Faults < tr.Distinct {
					t.Fatalf("level %d: faults %d below compulsory %d", lvl, res.Faults, tr.Distinct)
				}
				if res.Faults > prevPF {
					t.Fatalf("level %d faults %d exceed level %d faults %d", lvl, res.Faults, lvl-1, prevPF)
				}
				prevPF = res.Faults
			}

			// Invariant: the analytic LRU sweep matches a brute replay at
			// spot-checked allocations.
			curve, err := sweep.NewLRU(tr)
			if err != nil {
				t.Fatal(err)
			}
			refs := tr.RefsOnly()
			for _, m := range []int{1, 3, curve.V} {
				brute := vmsim.Run(refs, policy.NewLRU(m))
				if curve.Faults(m) != brute.Faults {
					t.Fatalf("m=%d: sweep %d != brute %d", m, curve.Faults(m), brute.Faults)
				}
			}

			// Invariant: the trace round-trips through the binary format.
			var buf, again bytes.Buffer
			if _, err := trace.WriteCDT3(&buf, tr, 0); err != nil {
				t.Fatal(err)
			}
			got, err := trace.Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := trace.WriteCDT3(&again, got, 0); err != nil {
				t.Fatal(err)
			}
			if got.Meta() != tr.Meta() || !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Fatalf("trace round trip mismatch")
			}
		})
	}
}

// compiled returns the named workload and its trace from the shared
// compile cache.
func compiled(t *testing.T, name string) (*core.Program, *trace.Trace) {
	t.Helper()
	c, err := workloads.Compile(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return c, tr
}

// TestWorkloadsUnderEveryPolicy runs every workload under every policy
// family member once, checking the compulsory lower bound and that the
// simulator never loses references.
func TestWorkloadsUnderEveryPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy × workload sweep")
	}
	for _, w := range workloads.All() {
		c, tr := compiled(t, w.Name)
		refs := tr.RefsOnly()
		pols := []policy.Policy{
			policy.NewLRU(16),
			policy.NewFIFO(16),
			policy.NewWS(1000),
			policy.NewDWS(1000, 100),
			policy.NewSWS(1000),
			policy.NewVSWS(250, 2000, 4),
			policy.NewPFF(250),
			policy.NewCD(w.DefaultSet().Selector(), 2),
		}
		for _, p := range pols {
			var res vmsim.Result
			if _, ok := p.(*policy.CD); ok {
				res = vmsim.Run(tr, p)
			} else {
				res = vmsim.Run(refs, p)
			}
			if res.Refs != tr.Refs {
				t.Errorf("%s/%s: refs %d != %d", w.Name, p.Name(), res.Refs, tr.Refs)
			}
			if res.Faults < tr.Distinct {
				t.Errorf("%s/%s: faults %d below compulsory %d", w.Name, p.Name(), res.Faults, tr.Distinct)
			}
			if res.MaxResident > c.V() {
				t.Errorf("%s/%s: resident %d exceeds V %d", w.Name, p.Name(), res.MaxResident, c.V())
			}
		}
	}
}

// TestOPTLowerBoundsEverything verifies Belady's oracle lower-bounds every
// demand policy at equal allocation on a real workload trace.
func TestOPTLowerBoundsEverything(t *testing.T) {
	_, tr := compiled(t, "HWSCRT")
	refs := tr.RefsOnly()
	pages := tr.Pages()
	for _, m := range []int{4, 8, 16, 32} {
		opt := vmsim.Run(refs, policy.NewOPT(pages, m))
		lru := vmsim.Run(refs, policy.NewLRU(m))
		fifo := vmsim.Run(refs, policy.NewFIFO(m))
		if opt.Faults > lru.Faults || opt.Faults > fifo.Faults {
			t.Errorf("m=%d: OPT %d not a lower bound (LRU %d, FIFO %d)", m, opt.Faults, lru.Faults, fifo.Faults)
		}
	}
}

// TestGeometryConsistency checks that the same program compiled at
// different page sizes preserves total bytes: V(ps) × ps is constant up
// to per-array page-alignment slack.
func TestGeometryConsistency(t *testing.T) {
	w, _ := workloads.Get("MAIN")
	var bytesLo, bytesHi int
	for _, ps := range []int{128, 1024} {
		prog, err := core.CompileSourceOpts(w.Name, w.Source, core.Options{
			Geometry: mem.Geometry{PageSize: ps},
		})
		if err != nil {
			t.Fatal(err)
		}
		total := prog.V() * ps
		if ps == 128 {
			bytesLo = total
		} else {
			bytesHi = total
		}
	}
	// Alignment slack: at most one page per array at the large page size.
	if bytesHi < bytesLo || bytesHi > bytesLo+5*1024 {
		t.Errorf("byte totals inconsistent across page sizes: %d vs %d", bytesLo, bytesHi)
	}
}
