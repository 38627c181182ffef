// Package plan defines the benchmark's workloads — the cdmm commands one
// round of each runs, with every parameter derived from the seed — and
// the result line both benchmark passes print. The end-to-end driver and
// the traced per-layer pass both read it, so they measure the same
// inputs. It imports only the standard library.
package plan

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
)

// Workload names, in BENCHMARK.json order. Each workload is one cdmm
// command, run again and again in fresh processes. There are two — the
// paper's tables (front end, interpreter, sweeps and replays) and the
// multiprogrammed kernel — so that each run can measure for long: on a
// shared host the speed of identical back-to-back commands drifts by a
// quarter over minutes, and only long runs keep the spread between runs
// inside the bounds.
const (
	Tables = "tables"
	Kernel = "kernel"
)

// Names lists every workload.
var Names = []string{Tables, Kernel}

// KernelTenants is the kernel workload's population.
const KernelTenants = 10000

// Args returns the workload's cdmm command line. The tables are the
// fixed suite and ignore the seed; the kernel draws its tenants and its
// chaos from it.
func Args(workload string, seed int64) ([]string, error) {
	switch workload {
	case Tables:
		return []string{"tables"}, nil
	case Kernel:
		return []string{"kernel", "-tenants", strconv.Itoa(KernelTenants), "-chaos", "all",
			"-seed", strconv.FormatUint(uint64(seed), 10)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, Names)
}

// ExpectPath is where the traced pass finds the CLI's output, the
// reference its in-process output must match byte for byte.
func ExpectPath(work string) string {
	return filepath.Join(work, "expect.out")
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's output, printed as the last line of stdout.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Median returns the median of xs (0 for none). xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
