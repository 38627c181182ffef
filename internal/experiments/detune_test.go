package experiments

import (
	"strings"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/policy"
)

func TestDetuneScalesGrants(t *testing.T) {
	base := policy.SelectLevel(2)
	arms := []directive.Arm{{PI: 2, X: 40}, {PI: 1, X: 10}}
	for _, c := range []struct {
		factor float64
		want   int
	}{
		{1.0, 40}, {0.5, 20}, {2.0, 80}, {0.01, 1}, // floors at 1
	} {
		a, ok := Detune(base, c.factor)("", arms)
		if !ok {
			t.Fatalf("factor %v: directive skipped", c.factor)
		}
		if a.X != c.want {
			t.Errorf("factor %v: X = %d, want %d", c.factor, a.X, c.want)
		}
	}
	// Skipped directives remain skipped.
	if _, ok := Detune(policy.SelectLevel(1), 1.0)("", []directive.Arm{{PI: 3, X: 9}, {PI: 2, X: 5}}); ok {
		t.Error("detune must preserve the skip decision")
	}
}

func TestDetuneStudyMonotoneFaults(t *testing.T) {
	rows, err := DetuneStudy(
		testEng,
		[]Variant{{"MAIN", "MAIN"}, {"TQL", "TQL1"}},
		[]float64{0.5, 1.0, 2.0},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Grouped per program: larger grants never increase faults.
	byProg := map[string][]DetuneRow{}
	for _, r := range rows {
		byProg[r.Variant.Set] = append(byProg[r.Variant.Set], r)
	}
	for name, rs := range byProg {
		for i := 1; i < len(rs); i++ {
			if rs[i].Factor > rs[i-1].Factor && rs[i].PF > rs[i-1].PF {
				t.Errorf("%s: faults increased with a larger grant: %v", name, rs)
			}
		}
	}
	out := RenderDetune(rows)
	if !strings.Contains(out, "ST/ST(1.0)") || !strings.Contains(out, "MAIN") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}
