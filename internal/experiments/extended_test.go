package experiments

import (
	"strings"
	"testing"

	"cdmm/internal/workloads"
)

func TestPolicyFamilySubset(t *testing.T) {
	rows, err := PolicyFamily(testEng, []Variant{{"MAIN", "MAIN"}, {"TQL", "TQL1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Every policy must at least take the compulsory faults.
		v := cacheVFor(t, r.Variant.Program)
		for name, res := range map[string]int{
			"CD": r.CD.Faults, "WS": r.WS.Faults, "DWS": r.DWS.Faults,
			"SWS": r.SWS.Faults, "VSWS": r.VSWS.Faults, "PFF": r.PFF.Faults,
		} {
			if res < v {
				t.Errorf("%s/%s: %d faults below compulsory %d", r.Variant.Set, name, res, v)
			}
		}
		// DWS retains pages longer than WS: never more faults.
		if r.DWS.Faults > r.WS.Faults {
			t.Errorf("%s: DWS faults %d exceed WS faults %d", r.Variant.Set, r.DWS.Faults, r.WS.Faults)
		}
		// SWS approximates WS at the same scale: within a loose factor.
		if r.SWS.Faults > 6*r.WS.Faults+100 {
			t.Errorf("%s: SWS faults %d too far above WS %d", r.Variant.Set, r.SWS.Faults, r.WS.Faults)
		}
	}
	out := RenderFamily(rows)
	for _, want := range []string{"CD", "VSWS", "PFF", "MAIN"} {
		if !strings.Contains(out, want) {
			t.Errorf("family rendering missing %q", want)
		}
	}
}

func cacheVFor(t *testing.T, program string) int {
	t.Helper()
	c, err := workloads.Compile(program)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr.Distinct
}

func TestPageSizeSensitivity(t *testing.T) {
	rows, err := PageSizeSensitivity(testEng, "HWSCRT", []int{128, 256, 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Smaller pages mean more pages in the virtual space.
	if !(rows[0].V > rows[1].V && rows[1].V > rows[2].V) {
		t.Errorf("V not decreasing with page size: %d %d %d", rows[0].V, rows[1].V, rows[2].V)
	}
	// CD should stay ahead of tuned LRU at the paper's 256-byte point.
	if rows[1].PctSTLRU <= 0 {
		t.Errorf("CD behind tuned LRU at 256-byte pages: %v%%", rows[1].PctSTLRU)
	}
	out := RenderPageSize(rows)
	if !strings.Contains(out, "HWSCRT") || !strings.Contains(out, "256") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}

func TestPageSizeSensitivityUnknown(t *testing.T) {
	if _, err := PageSizeSensitivity(testEng, "NOPE", []int{256}); err == nil {
		t.Error("expected error for unknown program")
	}
}
