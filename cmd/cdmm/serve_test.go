package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cdmm/internal/serve"
)

// captureStdout runs fn with os.Stdout redirected into a buffer and
// returns everything the command printed. Command output is the
// determinism contract under test: a run with a telemetry server
// attached must print exactly what a serverless run prints.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(done)
	}()
	os.Stdout = w
	ferr := func() error {
		// Restored even when fn stops the test from inside a serve hook.
		defer func() {
			os.Stdout = old
			w.Close()
		}()
		return fn()
	}()
	<-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return buf.String()
}

// servedRun runs the nested command line under `cdmm serve` on an
// ephemeral port and returns what it printed. inspect gets the live
// server's base URL after the nested command returns and before the
// server shuts down.
func servedRun(t *testing.T, inspect func(base string), nested ...string) string {
	t.Helper()
	ran := false
	serveTestHook = func(srv *serve.Server) {
		ran = true
		inspect(srv.URL())
	}
	defer func() { serveTestHook = nil }()
	out := captureStdout(t, func() error {
		return runCommand("serve", append([]string{"-addr", "127.0.0.1:0", "--"}, nested...))
	})
	if !ran {
		t.Fatal("serveTestHook did not run")
	}
	return out
}

// httpGetBody fetches a URL and returns the body.
func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// TestServeOutputByteIdenticalToServerless is the acceptance check that
// attaching the telemetry daemon changes nothing about results: the
// nested command's stdout under `cdmm serve -- ...` (at a different -j)
// is byte-identical to a plain serverless run.
func TestServeOutputByteIdenticalToServerless(t *testing.T) {
	plain := captureStdout(t, func() error {
		return runCommand("table1", []string{"-j", "1"})
	})
	served := captureStdout(t, func() error {
		return runCommand("serve", []string{"-addr", "127.0.0.1:0", "--", "table1", "-j", "8"})
	})
	if plain != served {
		t.Errorf("served table1 output differs from serverless run:\n--- serverless ---\n%s\n--- served ---\n%s", plain, served)
	}
	if !strings.Contains(plain, "MAIN") {
		t.Fatalf("table1 output looks empty:\n%s", plain)
	}
}

// TestServeEndpointsAfterNestedRun runs a nested table1 under the serve
// command and, via serveTestHook (which fires after the nested command
// but before shutdown), checks that the live endpoints saw the run.
func TestServeEndpointsAfterNestedRun(t *testing.T) {
	out := servedRun(t, func(base string) {
		health := httpGetBody(t, base+"/healthz")
		if !strings.Contains(health, `"status": "ok"`) {
			t.Errorf("healthz missing ok status: %s", health)
		}

		var snap struct {
			Idle   bool           `json:"idle"`
			Counts map[string]int `json:"counts"`
			Plans  []struct {
				Label    string `json:"label"`
				Finished bool   `json:"finished"`
			} `json:"plans"`
			Runs []struct {
				ID     int    `json:"id"`
				State  string `json:"state"`
				Label  string `json:"label"`
				Policy string `json:"policy"`
				Faults int    `json:"pf"`
			} `json:"runs"`
		}
		if err := json.Unmarshal([]byte(httpGetBody(t, base+"/progress")), &snap); err != nil {
			t.Fatalf("progress decode: %v", err)
		}
		if !snap.Idle {
			t.Error("progress not idle after nested command finished")
		}
		var sawTable1 bool
		for _, p := range snap.Plans {
			if p.Label == "table1" {
				sawTable1 = true
				if !p.Finished {
					t.Error("table1 plan not marked finished")
				}
			}
		}
		if !sawTable1 {
			t.Errorf("no table1 plan in progress snapshot: %+v", snap.Plans)
		}
		if len(snap.Runs) == 0 {
			t.Fatal("no runs tracked")
		}
		var sawLabeled bool
		for _, r := range snap.Runs {
			if r.State != "done" {
				t.Errorf("run %d state = %q, want done", r.ID, r.State)
			}
			if r.Label == "MAIN/MAIN" && r.Policy == "CD" && r.Faults > 0 {
				sawLabeled = true
			}
		}
		if !sawLabeled {
			t.Error("no run described as MAIN/MAIN CD with a fault count")
		}
		if snap.Counts["done"] != len(snap.Runs) {
			t.Errorf("counts = %v, want all %d done", snap.Counts, len(snap.Runs))
		}

		run0 := httpGetBody(t, base+"/runs/0")
		if !strings.Contains(run0, `"state": "done"`) {
			t.Errorf("runs/0 not done: %s", run0)
		}

		metrics := httpGetBody(t, base+"/metrics")
		if !strings.Contains(metrics, "cdmm_serve_runs{state=\"done\"}") {
			t.Errorf("metrics missing run-state gauge:\n%s", metrics)
		}
	}, "table1", "-j", "4")
	if !strings.Contains(out, "MAIN") {
		t.Fatalf("nested table1 printed nothing:\n%s", out)
	}
}

// TestServeFileSinksMatchScrape: a nested command's file sinks do not
// hide its runs from the server, and the server changes nothing in
// them. Under `cdmm serve -- table1 -metrics m.json`, with or without
// -events, the scrape's cdmm_refs_total equals m.json's refs counter,
// and stdout and every file equal a serverless run's byte for byte.
func TestServeFileSinksMatchScrape(t *testing.T) {
	type sink struct{ flag, ext string }
	metrics, events := sink{"-metrics", ".json"}, sink{"-events", ".jsonl"}
	for _, set := range [][]sink{{metrics}, {events, metrics}} {
		var name string
		for _, s := range set {
			name += s.flag
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			file := func(name string) string { return filepath.Join(dir, name) }
			sinks := func(side string) []string {
				var args []string
				for _, s := range set {
					args = append(args, s.flag, file(side+s.ext))
				}
				return args
			}
			plain := captureStdout(t, func() error {
				return runCommand("table1", append([]string{"-j", "1"}, sinks("plain")...))
			})
			var scrape string
			out := servedRun(t, func(base string) { scrape = httpGetBody(t, base+"/metrics") },
				append([]string{"table1", "-j", "4"}, sinks("served")...)...)
			if out != plain {
				t.Errorf("served table1 printed\n%s\nwant the serverless\n%s", out, plain)
			}
			read := func(name string) []byte {
				b, err := os.ReadFile(file(name))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			for _, s := range set {
				if !bytes.Equal(read("served"+s.ext), read("plain"+s.ext)) {
					t.Errorf("served table1's %s file differs from the serverless run's", s.flag)
				}
			}
			var snap struct {
				Counters map[string]int64 `json:"counters"`
			}
			if err := json.Unmarshal(read("served.json"), &snap); err != nil {
				t.Fatal(err)
			}
			if snap.Counters["refs"] == 0 {
				t.Fatalf("metrics file counts no refs: %v", snap.Counters)
			}
			if want := fmt.Sprintf("\ncdmm_refs_total %d\n", snap.Counters["refs"]); !strings.Contains(scrape, want) {
				t.Errorf("scrape lacks %q; its refs and faults lines: %q", strings.TrimSpace(want), promLines(scrape, "cdmm_refs_total", "cdmm_faults_total"))
			}
		})
	}
}

// TestServeKernelPublishes: a kernel run under `cdmm serve` publishes
// its telemetry, so /kernel serves the final view and the scrape carries
// the cdmm_kernel_* series, while stdout, and a -metrics file when one
// is asked for, stay those of a serverless run, which asks for no
// telemetry.
func TestServeKernelPublishes(t *testing.T) {
	for _, metrics := range []bool{false, true} {
		t.Run(fmt.Sprint("metrics=", metrics), func(t *testing.T) {
			dir := t.TempDir()
			args := func(side string) []string {
				a := []string{"kernel", "-tenants", "300", "-quick"}
				if metrics {
					a = append(a, "-metrics", filepath.Join(dir, side+".json"))
				}
				return a
			}
			plain := captureStdout(t, func() error { return runCommand("kernel", args("plain")[1:]) })
			var view, scrape string
			out := servedRun(t, func(base string) {
				view = httpGetBody(t, base+"/kernel")
				scrape = httpGetBody(t, base+"/metrics")
			}, args("served")...)
			if out != plain {
				t.Errorf("served kernel printed\n%s\nwant the serverless\n%s", out, plain)
			}
			var v struct {
				Final bool `json:"final"`
			}
			if err := json.Unmarshal([]byte(view), &v); err != nil || !v.Final {
				t.Errorf("/kernel = %s (err %v), want the final view", view, err)
			}
			if !strings.Contains(scrape, `cdmm_kernel_fault_latency_bucket{le="+Inf"}`) {
				t.Errorf("scrape lacks the kernel fault-latency histogram; kernel lines: %q", promLines(scrape, "cdmm_kernel_"))
			}
			if !metrics {
				return
			}
			plainFile, err := os.ReadFile(filepath.Join(dir, "plain.json"))
			if err != nil {
				t.Fatal(err)
			}
			servedFile, err := os.ReadFile(filepath.Join(dir, "served.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(servedFile, plainFile) {
				t.Errorf("served kernel's -metrics file\n%s\nwant the serverless\n%s", servedFile, plainFile)
			}
		})
	}
}

// TestServeExplainPublishes: explain under `cdmm serve` puts its CD, LRU
// and WS ledgers into the server's attribution store, and prints what a
// serverless explain prints.
func TestServeExplainPublishes(t *testing.T) {
	plain := captureStdout(t, func() error { return runCommand("explain", []string{"HWSCRT"}) })
	var listing string
	out := servedRun(t, func(base string) { listing = httpGetBody(t, base+"/explain") }, "explain", "HWSCRT")
	if out != plain {
		t.Errorf("served explain printed\n%s\nwant the serverless\n%s", out, plain)
	}
	var l struct {
		Runs []struct {
			Run string `json:"run"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(listing), &l); err != nil {
		t.Fatal(err)
	}
	var runs []string
	for _, r := range l.Runs {
		runs = append(runs, r.Run)
	}
	if want := []string{"HWSCRT/CD", "HWSCRT/LRU", "HWSCRT/WS"}; !slices.Equal(runs, want) {
		t.Errorf("/explain lists %v, want %v", runs, want)
	}
}

// promLines returns the lines of a scrape that start with any prefix.
func promLines(scrape string, prefixes ...string) []string {
	var lines []string
	for _, line := range strings.Split(scrape, "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				lines = append(lines, line)
				break
			}
		}
	}
	return lines
}

// TestServeSimProgress: sim under `cdmm serve` runs as a one-run engine
// plan, so /progress holds a finished "sim" plan whose one run is done
// and carries the PF sim printed, for a program and a streamed trace file
// alike. The run's live position, which only the replay's progress
// callback reports, stands at the stream's last event.
func TestServeSimProgress(t *testing.T) {
	trc := filepath.Join(t.TempDir(), "h.cdt3")
	captureStdout(t, func() error { return runCommand("trace", []string{"HWSCRT", "-o", trc}) })
	p, err := loadProgram("HWSCRT")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	events := int64(tr.Meta().Events)
	for _, operand := range []string{"HWSCRT", trc} {
		var snap struct {
			Plans []struct {
				Label    string `json:"label"`
				Total    int    `json:"total"`
				Finished bool   `json:"finished"`
			} `json:"plans"`
			Runs []struct {
				State  string `json:"state"`
				Policy string `json:"policy"`
				Faults int    `json:"pf"`
				Done   int64  `json:"done"`
				Total  int64  `json:"total"`
			} `json:"runs"`
		}
		out := servedRun(t, func(base string) {
			if err := json.Unmarshal([]byte(httpGetBody(t, base+"/progress")), &snap); err != nil {
				t.Fatalf("progress decode: %v", err)
			}
		}, "sim", operand, "-policy", "lru", "-m", "16")
		_, pf, ok := strings.Cut(out, "PF=")
		if !ok {
			t.Fatalf("sim %s printed no PF:\n%s", operand, out)
		}
		pf, _, _ = strings.Cut(pf, " ")
		if len(snap.Plans) != 1 || snap.Plans[0].Label != "sim" || snap.Plans[0].Total != 1 || !snap.Plans[0].Finished {
			t.Errorf("sim %s: /progress plans = %+v, want one finished sim plan of one run", operand, snap.Plans)
		}
		if len(snap.Runs) != 1 || snap.Runs[0].State != "done" || fmt.Sprint(snap.Runs[0].Faults) != pf ||
			snap.Runs[0].Policy != "LRU" || snap.Runs[0].Done != events || snap.Runs[0].Total != events {
			t.Errorf("sim %s: /progress runs = %+v, want one done LRU run at event %d of %d with the printed PF=%s", operand, snap.Runs, events, events, pf)
		}
	}
}
