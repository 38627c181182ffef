package engine

import (
	"testing"

	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

// TestCompiledSharedAcrossRuns has 8 runs on each of two engines fetch
// MAIN's trace from workloads.Compile and its LRU curve from the engine:
// every run must see the same trace, so the compilation is shared across
// runs and engines, and every run on one engine the same memoized curve.
func TestCompiledSharedAcrossRuns(t *testing.T) {
	type artifact struct {
		tr    *trace.Trace
		curve *sweep.LRUCurve
	}
	var curves []*sweep.LRUCurve
	var first *trace.Trace
	for _, eng := range []*Engine{New(4), New(1)} {
		out, err := MapNamed(eng, "", make([]struct{}, 8), func(rc *RunCtx, _ struct{}) (artifact, error) {
			p, err := workloads.Compile("MAIN")
			if err != nil {
				return artifact{}, err
			}
			tr, err := p.Trace()
			if err != nil {
				return artifact{}, err
			}
			curve, err := eng.LRUSweep(rc, tr)
			return artifact{tr, curve}, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = out[0].tr
		}
		for i, a := range out {
			if a.tr == nil || a.curve == nil {
				t.Fatalf("run %d: nil trace or curve", i)
			}
			if a.tr != first {
				t.Fatalf("run %d got trace %p, want %p: want one shared compilation", i, a.tr, first)
			}
			if a.curve != out[0].curve {
				t.Fatalf("run %d got curve %p, run 0 got %p: want one memoized curve per engine", i, a.curve, out[0].curve)
			}
		}
		curves = append(curves, out[0].curve)
	}
	if curves[0] == curves[1] {
		t.Error("two engines share one curve: the memo store must be per engine")
	}
}
