package interp

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/fortran"
	"cdmm/internal/locality"
	"cdmm/internal/mem"
	"cdmm/internal/sem"
)

// TestStepBudget pins what a step is: every executed statement and every
// DO iteration. With MaxRefs 10 the budget is 80 steps; the DO statement
// plus 39 iterations of a one-statement body take 79, and one more
// iteration overruns.
func TestStepBudget(t *testing.T) {
	for _, c := range []struct {
		iters int
		want  string
	}{
		{39, ""},
		{40, "interp: P exceeded 80 steps"},
	} {
		src := fmt.Sprintf("PROGRAM P\nDO I = 1, %d\nX = 1.0\nEND DO\nEND\n", c.iters)
		info, cfg := setup(t, src, false)
		cfg.MaxRefs = 10
		_, err := Run(info, cfg)
		_, oracleErr := runTree(info, cfg)
		if errText(err) != c.want || errText(oracleErr) != c.want {
			t.Errorf("%d iterations: error %q, oracle %q, want %q", c.iters, errText(err), errText(oracleErr), c.want)
		}
	}
}

// TestEveryIntrinsicEvaluates keeps the parser's intrinsic list and the
// interpreter's implementations in step: every name the parser accepts
// as an intrinsic must evaluate, with one or two arguments, in both
// interpreters.
func TestEveryIntrinsicEvaluates(t *testing.T) {
	var names []string
	for name := range fortran.Intrinsics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var errs []string
		ok := false
		for _, args := range []string{"2.0", "2.0, 3.0"} {
			info, cfg := setup(t, fmt.Sprintf("PROGRAM P\nX = %s(%s)\nEND\n", name, args), false)
			_, err := Run(info, cfg)
			_, oracleErr := runTree(info, cfg)
			if errText(err) != errText(oracleErr) {
				t.Errorf("%s(%s): error %q, oracle %q", name, args, errText(err), errText(oracleErr))
			}
			if err == nil {
				ok = true
				break
			}
			errs = append(errs, err.Error())
		}
		if !ok {
			t.Errorf("%s does not evaluate: %s", name, strings.Join(errs, "; "))
		}
	}
}

// FuzzInterp runs arbitrary programs through both interpreters, with and
// without a directive plan: they must fail with the same error text or
// build byte-identical traces, and neither may panic. Every FORTRAN
// program literal in this package's tests seeds the corpus.
func FuzzInterp(f *testing.F) {
	for _, src := range testPrograms(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := fortran.Parse(src)
		if err != nil {
			return
		}
		info, err := sem.Analyze(prog)
		if err != nil {
			return
		}
		layout, err := mem.NewLayout(prog, mem.DefaultGeometry)
		if err != nil {
			return
		}
		elems := 0
		for _, a := range prog.Arrays {
			elems += a.Elems()
		}
		if elems > 1<<16 {
			return
		}
		plan := directive.Build(locality.Analyze(info, layout))
		for _, p := range []*directive.Plan{nil, plan} {
			cfg := Config{Layout: layout, Plan: p, MaxRefs: 1 << 14}
			got, err := Run(info, cfg)
			want, oracleErr := runTree(info, cfg)
			if errText(err) != errText(oracleErr) {
				t.Fatalf("plan %v: error %q, oracle %q", p != nil, errText(err), errText(oracleErr))
			}
			if err == nil && !bytes.Equal(encode(t, got), encode(t, want)) {
				t.Fatalf("plan %v: trace differs from the oracle's", p != nil)
			}
		}
	})
}

// testPrograms returns every string literal in this package's test files
// that holds a FORTRAN program.
func testPrograms(f *testing.F) []string {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "PROGRAM ") {
					out = append(out, s)
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		f.Fatal("no test programs found")
	}
	return out
}
