package workloads

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cdmm/internal/locality"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenDirectivePlans pins the exact directive plan and locality tree
// of every workload. Any change to the locality rules, the priority-index
// assignment, or the insertion algorithms shows up here as a readable
// diff. Regenerate intentionally with:
//
//	go test ./internal/workloads -run Golden -update
func TestGoldenDirectivePlans(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			c, err := Compile(p.Name)
			if err != nil {
				t.Fatal(err)
			}
			got := "== directives ==\n" + c.Plan.Render() +
				"== locality tree ==\n" + locality.RenderTree(c.Analysis.Tree())
			path := filepath.Join("testdata", p.Name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("directive plan changed; diff against %s:\n--- got ---\n%s", path, got)
			}
		})
	}
}
