package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// waitNoLeak polls until the process goroutine count is back at (or
// below) the pre-test baseline, failing with full stacks otherwise: the
// serve-smoke CI job runs these tests with -race to prove handler and
// hub teardown leaks nothing.
func waitNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
}

// checkPromBody sanity-checks a /metrics payload: every non-comment
// line is `name[{labels}] value` with a parseable value and a legal
// metric name. Returns the parsed values keyed by the full series name.
func checkPromBody(t *testing.T, body string) map[string]float64 {
	t.Helper()
	vals := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("metrics line without value: %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(valStr, 64); err != nil {
			t.Fatalf("metrics line %q: bad value: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, c := range name {
			if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
				t.Fatalf("metrics name %q has illegal char %q", name, c)
			}
		}
		vals[series] = mustFloat(valStr)
	}
	return vals
}

func mustFloat(s string) float64 {
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

func get(t *testing.T, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func startServer(t *testing.T, opt Options) (*Server, *http.Client) {
	t.Helper()
	srv := New(opt)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return srv, &http.Client{Transport: tr}
}

func TestServeSmokeEndToEnd(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// A buffer big enough for the whole merged stream: the smoke run's
	// burst arrives faster than the socket drains, and this test wants
	// the complete run..end framing rather than the drop policy.
	srv, client := startServer(t, Options{EventBuffer: 1 << 16})
	eng := engine.New(2).WithObserver(srv.Observer()).WithProgress(srv.Progress())

	// Attach an SSE client before running so the gate is open and the
	// whole merged stream lands in its buffer.
	resp, err := client.Get(srv.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sseDone := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		sseDone <- string(b)
	}()
	for i := 0; srv.hub.subscribers() == 0; i++ {
		if i > 500 {
			t.Fatal("SSE subscriber never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !srv.Open() {
		t.Fatal("gate closed with a subscriber connected")
	}

	results, err := engine.MapNamed(eng, "smoke", []string{"CONDUCT"}, func(rc *engine.RunCtx, prog string) (vmsim.Result, error) {
		tr, err := workloadTrace(prog)
		if err != nil {
			return vmsim.Result{}, err
		}
		rc.Describe(prog, "LRU")
		res := vmsim.RunObserved(tr.RefsOnly(), policy.NewLRU(32), rc.Obs)
		rc.Report(res)
		return res, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	code, body := get(t, client, srv.URL()+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("healthz = %d %q", code, body)
	}

	code, body = get(t, client, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	vals := checkPromBody(t, body)
	if vals["cdmm_refs_total"] != float64(results[0].Refs) {
		t.Errorf("cdmm_refs_total = %v, want %d", vals["cdmm_refs_total"], results[0].Refs)
	}
	if vals["cdmm_serve_subscribers"] != 1 {
		t.Errorf("cdmm_serve_subscribers = %v, want 1", vals["cdmm_serve_subscribers"])
	}
	// The run-state family lists exactly the states a run can reach.
	var states []string
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, `cdmm_serve_runs{state="`); ok {
			states = append(states, rest[:strings.IndexByte(rest, '"')])
		}
	}
	if got, want := strings.Join(states, ","), "queued,running,done,failed,degraded"; got != want {
		t.Errorf("cdmm_serve_runs states = %s, want %s", got, want)
	}

	code, body = get(t, client, srv.URL()+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress status = %d", code)
	}
	var snap engine.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("progress body: %v", err)
	}
	if !snap.Idle || snap.Counts["done"] != 1 {
		t.Errorf("progress = idle=%v counts=%v, want idle with 1 done", snap.Idle, snap.Counts)
	}
	var raw struct{ Runs []map[string]any }
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatalf("progress body: %v", err)
	}
	for _, run := range raw.Runs {
		if _, ok := run["attempts"]; ok {
			t.Errorf("progress run carries an attempts field: %v", run)
		}
	}

	code, body = get(t, client, srv.URL()+"/runs/0")
	if code != http.StatusOK {
		t.Fatalf("runs/0 status = %d", code)
	}
	var rs engine.RunSnapshot
	if err := json.Unmarshal([]byte(body), &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Label != "CONDUCT" || rs.State != "done" || rs.Faults != results[0].Faults {
		t.Errorf("runs/0 = %+v", rs)
	}
	if code, _ = get(t, client, srv.URL()+"/runs/99"); code != http.StatusNotFound {
		t.Errorf("runs/99 status = %d, want 404", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	stream := <-sseDone
	for _, want := range []string{"event: hello", "event: obs", `"ev":"run"`, `"ev":"end"`} {
		if !strings.Contains(stream, want) {
			t.Errorf("SSE stream missing %q", want)
		}
	}

	client.Transport.(*http.Transport).CloseIdleConnections()
	waitNoLeak(t, baseline)
}

func TestGateFollowsScrapesAndSubscribers(t *testing.T) {
	srv, client := startServer(t, Options{ScrapeWindow: 80 * time.Millisecond})
	defer srv.Shutdown(context.Background())

	if srv.Open() {
		t.Fatal("gate open with no clients")
	}
	if code, _ := get(t, client, srv.URL()+"/metrics"); code != http.StatusOK {
		t.Fatal("scrape failed")
	}
	if !srv.Open() {
		t.Fatal("gate closed immediately after a scrape")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Open() {
		if time.Now().After(deadline) {
			t.Fatal("gate never re-closed after the scrape window")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownDeliversQueuedFrames pins the end of the SSE stream:
// frames already queued for a subscriber when Shutdown begins are
// written before the stream closes, all of them and in order, however
// far the subscriber's writer had got.
func TestShutdownDeliversQueuedFrames(t *testing.T) {
	const n = 2000
	srv, client := startServer(t, Options{EventBuffer: 2 * n})
	resp, err := client.Get(srv.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for i := 0; srv.hub.subscribers() == 0; i++ {
		if i > 500 {
			t.Fatal("SSE subscriber never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 1; i <= n; i++ {
		srv.hub.Emit(obs.Event{Kind: obs.KindRes, I: i})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	next := 1
	for _, line := range strings.Split(string(body), "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || !strings.Contains(data, `"ev":"res"`) {
			continue
		}
		var ev struct {
			I int `json:"i"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil || ev.I != next {
			t.Fatalf("frame %d out of order: %s", next, data)
		}
		next++
	}
	if next-1 != n {
		t.Fatalf("stream carried %d of %d queued frames", next-1, n)
	}
}

// TestHubDropPolicy pins the slow-subscriber contract: a full buffer
// drops the newest frames (the buffered prefix is untouched and stays
// in order) and the loss is counted per subscriber for the explicit
// dropped-notice frame.
func TestHubDropPolicy(t *testing.T) {
	h := newHub()
	fast := h.subscribe(16)
	slow := h.subscribe(2)
	for i := 1; i <= 10; i++ {
		h.Emit(obs.Event{Kind: obs.KindRes, I: i})
	}
	if got := len(fast.ch); got != 10 {
		t.Errorf("fast subscriber has %d frames, want 10", got)
	}
	if got := len(slow.ch); got != 2 {
		t.Errorf("slow subscriber has %d frames, want 2", got)
	}
	if got := slow.dropped.Load(); got != 8 {
		t.Errorf("slow subscriber dropped %d, want 8", got)
	}
	// The retained frames are the oldest, in order.
	f1, f2 := <-slow.ch, <-slow.ch
	if !strings.Contains(string(f1), `"i":1`) || !strings.Contains(string(f2), `"i":2`) {
		t.Errorf("slow subscriber kept %q, %q — drop-newest must keep the oldest frames", f1, f2)
	}
	if h.drops.Load() != 8 || h.total.Load() != 10 {
		t.Errorf("hub totals = %d sent, %d dropped", h.total.Load(), h.drops.Load())
	}
	h.unsubscribe(fast)
	h.unsubscribe(slow)
	if h.subscribers() != 0 {
		t.Errorf("subscribers = %d after unsubscribe", h.subscribers())
	}
	frame := appendFrame(nil, 7, "dropped", []byte(`{"dropped":8}`))
	if string(frame) != "id: 7\nevent: dropped\ndata: {\"dropped\":8}\n\n" {
		t.Errorf("dropped-notice frame = %q", frame)
	}
}

// TestScrapeDuringChaos is the exporter round-trip under load: while
// the chaos fault-injection matrix runs through a serve-attached
// engine, every concurrent /metrics scrape must be well-formed, and the
// final scrape must agree exactly with the registry's own snapshot.
func TestScrapeDuringChaos(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, client := startServer(t, Options{ScrapeWindow: time.Minute})
	eng := engine.New(4).WithObserver(srv.Observer()).WithProgress(srv.Progress())

	// Open the gate via a scrape (no SSE client), as a Prometheus-only
	// deployment would.
	if code, _ := get(t, client, srv.URL()+"/metrics"); code != http.StatusOK {
		t.Fatal("initial scrape failed")
	}

	var stop atomic.Bool
	scraped := make(chan int, 1)
	go func() {
		n := 0
		for !stop.Load() {
			code, body := get(t, client, srv.URL()+"/metrics")
			if code != http.StatusOK {
				t.Errorf("scrape status = %d", code)
				break
			}
			checkPromBody(t, body)
			n++
		}
		scraped <- n
	}()

	rows, err := experiments.ChaosMatrix(eng, experiments.ChaosConfig{
		Variants:    []experiments.Variant{{Program: "MAIN", Set: "MAIN"}},
		Intensities: []float64{0.1},
	})
	stop.Store(true)
	n := <-scraped
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("chaos matrix produced no rows")
	}
	if n == 0 {
		t.Fatal("no scrapes completed during the chaos matrix")
	}

	_, body := get(t, client, srv.URL()+"/metrics")
	vals := checkPromBody(t, body)
	snap := srv.registry.Snapshot()
	for _, c := range snap.Counters {
		series := "cdmm_" + strings.Map(sanitizeRune, c.Name)
		if !strings.HasSuffix(series, "_total") {
			series += "_total"
		}
		if got, ok := vals[series]; !ok || got != float64(c.Value) {
			t.Errorf("scrape %s = %v (present=%v), registry has %d", series, got, ok, c.Value)
		}
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	client.Transport.(*http.Transport).CloseIdleConnections()
	waitNoLeak(t, baseline)
}

func sanitizeRune(r rune) rune {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
		return r
	default:
		return '_'
	}
}

// TestServeObserverFastPathWhenUnwatched pins the no-client stance the
// perf harness budgets: with neither subscriber nor recent scrape the
// serve observer is disabled, runs take the fast path, and results are
// identical to a bare run.
func TestServeObserverFastPathWhenUnwatched(t *testing.T) {
	srv, _ := startServer(t, Options{})
	defer srv.Shutdown(context.Background())

	eng := engine.New(1).WithObserver(srv.Observer()).WithProgress(srv.Progress())
	out, err := engine.MapNamed(eng, "dark", []string{"CONDUCT"}, func(rc *engine.RunCtx, prog string) (vmsim.Result, error) {
		tr, err := workloadTrace(prog)
		if err != nil {
			return vmsim.Result{}, err
		}
		return vmsim.RunObserved(tr.RefsOnly(), policy.NewLRU(32), rc.Obs), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap := srv.registry.Snapshot(); len(snap.Counters) != 0 {
		t.Errorf("unwatched run leaked %d counters into the registry", len(snap.Counters))
	}
	tr, err := workloadTrace("CONDUCT")
	if err != nil {
		t.Fatal(err)
	}
	if plain := vmsim.Run(tr.RefsOnly(), policy.NewLRU(32)); out[0] != plain {
		t.Errorf("unwatched result drifted: got %+v want %+v", out[0], plain)
	}
	// Live position still flowed through the progress callback.
	rs, ok := srv.Progress().Run(0)
	if !ok || rs.Done == 0 || rs.Done != rs.Total {
		t.Errorf("dark run position = %+v", rs)
	}
}

// workloadTrace returns the named workload's compiled trace.
func workloadTrace(name string) (*trace.Trace, error) {
	c, err := workloads.Compile(name)
	if err != nil {
		return nil, err
	}
	return c.Trace()
}
