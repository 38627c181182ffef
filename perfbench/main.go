// Command perfbench is the end-to-end benchmark of the cdmm CLI. It runs
// one workload's cdmm command the way a user does — each time in a fresh
// process, one after another (a closed loop with one client) — for a
// fixed wall-clock window, checks every output, and prints one JSON
// result line. With -trace 1 it runs the traced per-layer pass instead
// (package layers), which times the layers in-process on the same
// inputs.
//
// run.sh builds cdmm and this program and then runs it; from the
// repository root:
//
//	bash perfbench/run.sh --workload tables --seed 1 --seconds 10 --trace 0
//
// End-to-end metrics (-trace 0), per workload:
//
//	latency_ms    median wall time of the command
//	peak_rss_mib  median peak resident memory of the command
//	setup_s       median of five set-ups, each one run of the command
//	              before the window opens
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cdmm/perfbench/plan"
)

const (
	// setupRepeats is how many set-ups a run times for setup_s.
	setupRepeats = 5
	// commandTimeout bounds one cdmm invocation; each workload's command
	// takes seconds at most.
	commandTimeout = 60 * time.Second
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(plan.Names, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	cdmm := flag.String("cdmm", ".bench_build/cdmm", "the cdmm binary under test")
	work := flag.String("work", ".bench_build/work", "directory for inputs and outputs")
	flag.Parse()

	res, err := run(*workload, *seed, *seconds, *traced == 1, *cdmm, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one run's context: the workload, its command and where it
// works.
type bench struct {
	workload string
	seed     int64
	args     []string
	cdmm     string
	work     string
}

func run(workload string, seed int64, seconds int, traced bool, cdmm, work string) (*plan.Result, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be positive (got %d)", seconds)
	}
	args, err := plan.Args(workload, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{workload: workload, seed: seed, args: args}
	if b.cdmm, err = filepath.Abs(cdmm); err != nil {
		return nil, err
	}
	if b.work, err = filepath.Abs(filepath.Join(work, workload)); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	if traced {
		return b.traced(seconds)
	}
	return b.endToEnd(time.Duration(seconds) * time.Second)
}

// sample is the cost of one cdmm process.
type sample struct {
	wall   time.Duration
	rssKiB int64
}

// exec runs cdmm with args in the work directory and returns its stdout.
// A nonzero exit is an error carrying the command's stderr.
func (b *bench) exec(args []string) ([]byte, sample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), commandTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.cdmm, args...)
	cmd.Dir = b.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(start)}
	if err != nil {
		return nil, s, fmt.Errorf("cdmm %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssKiB = ru.Maxrss
	}
	return stdout.Bytes(), s, nil
}

// endToEnd is the untraced pass: set up, then run the workload's
// command until the window closes, checking every output, then verify
// the output against an independent oracle.
func (b *bench) endToEnd(window time.Duration) (*plan.Result, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		_, s, err := b.exec(b.args)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.wall.Seconds())
	}

	var walls, rsss []float64
	var first []byte // the first good output
	res := &plan.Result{}
	deadline := time.Now().Add(window)
	for res.Attempted == 0 || time.Now().Before(deadline) {
		res.Attempted++
		out, s, err := b.exec(b.args)
		if err == nil {
			err = b.check(out, first)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			continue
		}
		if first == nil {
			first = out
		}
		walls = append(walls, float64(s.wall)/float64(time.Millisecond))
		rsss = append(rsss, float64(s.rssKiB)/1024)
	}
	if first == nil {
		return nil, fmt.Errorf("%s never succeeded", b.describe())
	}

	verr := b.verify(first)
	if verr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verification:", verr)
	}
	res.Correct = res.Failed == 0 && verr == nil
	res.Metrics = map[string]plan.Metric{
		"latency_ms":   {Value: plan.Median(walls), Unit: "ms"},
		"peak_rss_mib": {Value: plan.Median(rsss), Unit: "MiB"},
		"setup_s":      {Value: plan.Median(setups), Unit: "s"},
	}
	return res, nil
}

// traced is the per-layer pass: record the CLI's output as the
// reference, then build and run the in-process layer tracer on the same
// inputs and pass its result line through.
func (b *bench) traced(seconds int) (*plan.Result, error) {
	out, _, err := b.exec(b.args)
	if err == nil {
		err = b.check(out, nil)
	}
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(plan.ExpectPath(b.work), out, 0o644); err != nil {
		return nil, err
	}
	layers := filepath.Join(filepath.Dir(b.cdmm), "perfbench-layers")
	build := exec.Command("go", "-C", "perfbench", "build", "-o", layers, "./layers")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building the layer tracer: %w", err)
	}
	cmd := exec.Command(layers, "-workload", b.workload, "-seed", fmt.Sprint(b.seed),
		"-seconds", fmt.Sprint(seconds), "-work", b.work)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer tracer: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res plan.Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("layer tracer result: %w", err)
	}
	if res.Attempted < 1 {
		return nil, errors.New("layer tracer attempted nothing")
	}
	return &res, nil
}
