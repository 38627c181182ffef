package trace_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdmm/internal/chaos"
	"cdmm/internal/kernel"
	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// TestColumnsGolden pins the exact stream of every trace the repository
// builds: the nine compiled workloads with their directive-free and
// site-free views, each chaos injector's perturbation of the two traces
// with the most directives, and the first kernel tenants' streams as
// the kernel generates them. A line records the CDT3 encoding's sha256
// and the source's Meta, so any change to how traces are built, viewed
// or perturbed shows up as a diff. Regenerate intentionally with:
//
//	go test ./internal/trace -run ColumnsGolden -update
func TestColumnsGolden(t *testing.T) {
	var b strings.Builder
	record := func(label string, src trace.Source) {
		var buf bytes.Buffer
		if _, err := trace.WriteCDT3(&buf, src, 0); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		m := src.Meta()
		fmt.Fprintf(&b, "%-32s %x name=%s events=%d refs=%d distinct=%d maxPage=%d sites=%v\n",
			label, sha256.Sum256(buf.Bytes()), m.Name, m.Events, m.Refs, m.Distinct, m.MaxPage, m.HasSites)
	}

	compiled := map[string]*trace.Trace{}
	for _, w := range workloads.All() {
		c, err := workloads.Compile(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.Trace()
		if err != nil {
			t.Fatal(err)
		}
		compiled[w.Name] = tr
		record(w.Name, tr)
		record(w.Name+"/refs-only", tr.RefsOnly())
		record(w.Name+"/without-sites", tr.WithoutSites())
	}
	for _, name := range []string{"TQL", "HWSCRT"} {
		for _, f := range chaos.Faults() {
			if f.Perturb == nil {
				continue
			}
			rng := chaos.NewRand(chaos.DeriveSeed(1, "golden", f.Name, name))
			record(name+"/"+f.Name, f.Perturb(compiled[name], rng, 0.4))
		}
	}
	for i := 0; i < 16; i++ {
		spec := kernel.NewSynthSpec(1, i, 1)
		record(fmt.Sprintf("tenant/%d", i), &spec) // generated on demand
	}

	path := filepath.Join("testdata", "columns.golden")
	got := b.String()
	if *updateGolden {
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
		t.Errorf("trace streams drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
