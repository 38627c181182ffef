package interp_test

import (
	"bytes"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/interp"
	"cdmm/internal/workloads"
)

// TestLoweredMatchesTree requires the lowered interpreter to build every
// workload's trace exactly as the tree-walking oracle does, with and
// without a directive plan: the same CDT3 bytes (events, side tables and
// sites) and the same counts.
func TestLoweredMatchesTree(t *testing.T) {
	for _, w := range workloads.All() {
		c, err := workloads.Compile(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []*directive.Plan{nil, c.Plan} {
			cfg := interp.Config{Layout: c.Layout, Plan: plan}
			got, err := interp.Run(c.Info, cfg)
			if err != nil {
				t.Fatalf("%s (plan %v): %v", w.Name, plan != nil, err)
			}
			want, err := interp.RunTree(c.Info, cfg)
			if err != nil {
				t.Fatalf("%s (plan %v): oracle: %v", w.Name, plan != nil, err)
			}
			if got.Refs != want.Refs || got.Distinct != want.Distinct {
				t.Errorf("%s (plan %v): R=%d V=%d, oracle R=%d V=%d",
					w.Name, plan != nil, got.Refs, got.Distinct, want.Refs, want.Distinct)
			}
			if !bytes.Equal(interp.Encode(t, got), interp.Encode(t, want)) {
				t.Errorf("%s (plan %v): CDT3 bytes differ from the oracle's", w.Name, plan != nil)
			}
		}
	}
}
