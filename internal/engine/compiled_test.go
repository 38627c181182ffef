package engine

import (
	"testing"

	"cdmm/internal/core"
	"cdmm/internal/trace"
)

// TestCompiledSharedAcrossRuns has 8 runs on each of two engines fetch
// MAIN through compiled: every run must see the same program and trace,
// so the compilation is shared across runs and across engines.
func TestCompiledSharedAcrossRuns(t *testing.T) {
	type artifact struct {
		p  *core.Program
		tr *trace.Trace
	}
	var all []artifact
	for _, eng := range []*Engine{New(4), New(1)} {
		out, err := MapNamed(eng, "", make([]struct{}, 8), func(_ *RunCtx, _ struct{}) (artifact, error) {
			p, tr, err := compiled("MAIN")
			return artifact{p, tr}, err
		})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, out...)
	}
	for i, a := range all {
		if a.p == nil || a.tr == nil {
			t.Fatalf("run %d: nil program or trace", i)
		}
		if a != all[0] {
			t.Fatalf("run %d got program %p trace %p, run 0 got %p %p: want one shared compilation",
				i, a.p, a.tr, all[0].p, all[0].tr)
		}
	}
}
