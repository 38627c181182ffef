// Package workloads provides the nine numerical FORTRAN programs of the
// paper's §5 evaluation — MAIN, FDJAC, TQL, FIELD, INIT, APPROX, HYBRJ,
// CONDUCT and HWSCRT — reconstructed in the FORTRAN subset from the named
// algorithms' public descriptions (MINPACK, EISPACK, FISHPACK, and
// standard relaxation kernels), plus the directive-set variants used in
// Tables 1, 3 and 4 (MAIN1–3, FDJAC1, TQL1–2).
//
// The authors' exact sources are not available; these reconstructions
// preserve what the CD policy consumes — the loop-nest shapes, reference
// orders and array footprints — as documented in DESIGN.md.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"cdmm/internal/core"
	"cdmm/internal/policy"
)

// Program is one workload: a source text plus its directive-set variants.
type Program struct {
	Name        string
	Description string
	Source      string
	// Sets are the directive-set variants the paper runs (Table 1): each
	// names a run and gives the ALLOCATE stratum honored, where level 1 is
	// the innermost-loop directives (smallest allocations) and level Δ the
	// outermost. The first set is the program's canonical one (the name
	// used in Tables 2–4).
	Sets []Set

	// compile is the program's one compilation, set by register.
	compile func() (*core.Program, error)
}

// Set is a named directive-set variant. Level is the default stratum;
// Overrides maps loop keys (FORTRAN statement labels, or "L<line>" for
// unlabeled loops) to a different stratum for the directives of those
// loops — the paper's hand-chosen sets need not be uniform.
type Set struct {
	Name      string
	Level     int
	Overrides map[string]int
}

// Selector builds the ArmSelector realizing this directive set.
func (s Set) Selector() policy.ArmSelector {
	if len(s.Overrides) == 0 {
		return policy.SelectLevel(s.Level)
	}
	return policy.SelectLevels(s.Level, s.Overrides)
}

// DefaultSet returns the canonical variant.
func (p *Program) DefaultSet() Set { return p.Sets[0] }

// Set returns the named variant.
func (p *Program) Set(name string) (Set, bool) {
	for _, s := range p.Sets {
		if s.Name == name {
			return s, true
		}
	}
	return Set{}, false
}

var (
	registryMu sync.Mutex
	registry   = map[string]*Program{}
)

// register adds a program at package init, with its compile slot.
func register(p *Program) *Program {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[p.Name]; dup {
		panic("workloads: duplicate program " + p.Name)
	}
	p.compile = sync.OnceValues(func() (*core.Program, error) {
		c, err := core.CompileSource(p.Name, p.Source)
		if err != nil {
			return nil, err
		}
		if _, err := c.Trace(); err != nil {
			return nil, err
		}
		return c, nil
	})
	registry[p.Name] = p
	return p
}

// All returns every registered program sorted by name.
func All() []*Program {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]*Program, 0, len(registry))
	for _, p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the named program.
func Get(name string) (*Program, error) {
	registryMu.Lock()
	defer registryMu.Unlock()
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown program %q", name)
	}
	return p, nil
}

// Names returns the sorted program names.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name
	}
	return names
}

// Compile returns the named program compiled by core with its trace
// built. Each registered program compiles once per process: concurrent
// callers block on that one compilation and share its result. Traces are
// deterministic and immutable, so sharing is safe.
func Compile(name string) (*core.Program, error) {
	p, err := Get(name)
	if err != nil {
		return nil, err
	}
	return p.compile()
}
