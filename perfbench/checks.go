package main

import (
	"bytes"
	"fmt"
	"strings"

	"cdmm/perfbench/plan"
)

// check validates one command's output on its own and, when an earlier
// output of the same command exists, demands it byte for byte: every
// command is deterministic.
func (b *bench) check(out, first []byte) error {
	if first != nil && !bytes.Equal(out, first) {
		return fmt.Errorf("%s: output differs from its first run", b.describe())
	}
	var want []string
	switch b.workload {
	case plan.Tables:
		want = []string{"Table 1:", "Table 2:", "Table 3:", "Table 4:"}
	case plan.Kernel:
		want = []string{fmt.Sprintf("kernel: %d tenants,", plan.KernelTenants),
			fmt.Sprintf(" done=%d ", plan.KernelTenants), " starved=0 ", " violations=0"}
	}
	for _, w := range want {
		if !bytes.Contains(out, []byte(w)) {
			return fmt.Errorf("%s: output lacks %q", b.describe(), w)
		}
	}
	return nil
}

// describe names the workload's command as its command line.
func (b *bench) describe() string {
	return "cdmm " + strings.Join(b.args, " ")
}

// verify checks the measured output against an independent oracle: the
// per-cell replay mode for the tables, whose one-pass sweep curves must
// agree with it cell for cell, and a single-worker run for the kernel,
// whose output is byte-identical at any -j.
func (b *bench) verify(out []byte) error {
	args := append([]string(nil), b.args...)
	switch b.workload {
	case plan.Tables:
		args = append(args, "-cellmode")
	case plan.Kernel:
		args = append(args, "-j", "1")
	}
	oracle, _, err := b.exec(args)
	if err != nil {
		return err
	}
	if !bytes.Equal(oracle, out) {
		return fmt.Errorf("%s: output differs from the oracle cdmm %s", b.describe(), strings.Join(args, " "))
	}
	return nil
}
