// Package serve is the simulator's live telemetry daemon: an HTTP
// server exposing the metrics registry in Prometheus text format
// (/metrics), engine plan/run lifecycle with live in-run trace position
// (/progress, /runs/{id}), the merged deterministic event stream over
// Server-Sent Events (/events), and a health probe (/healthz).
//
// The server is attach-and-forget: Observer() returns an observer whose
// Gate is the server itself, open only while a telemetry client is
// actually looking (an SSE subscriber is connected, or a Prometheus
// scrape happened within ScrapeWindow). While the gate is closed,
// simulations take the un-instrumented fast path and the only residual
// cost is one chunked progress callback per few tens of thousands of
// simulated events — the overhead guard in internal/perf holds the
// no-client total under 2% of the bare hot path. The gate is consulted
// once per run, so a client connecting mid-plan sees events from the
// next run onward.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cdmm/internal/attr"
	"cdmm/internal/engine"
	"cdmm/internal/kernel"
	"cdmm/internal/obs"
)

// Options configures a Server. The zero value is usable: a fresh
// registry and tracker are created on demand and defaults are applied
// by New.
type Options struct {
	// Registry is scraped at /metrics (a fresh one when nil). Share it
	// with the observers of the runs to be monitored.
	Registry *obs.Registry
	// Progress backs /progress and /runs/{id} (a fresh, empty tracker
	// when nil). Attach the same tracker to the engines to be monitored.
	Progress *engine.Progress
	// Log receives structured lifecycle records; nil logs nothing.
	Log *slog.Logger
	// Pprof exposes /debug/pprof/ when true.
	Pprof bool
	// EventBuffer is the per-subscriber frame buffer (default 256); a
	// subscriber whose buffer is full loses the newest frames and is
	// sent an explicit dropped-notice frame.
	EventBuffer int
	// ScrapeWindow is how long after a /metrics scrape the observer
	// gate stays open so the scraped series keep moving (default 15s).
	ScrapeWindow time.Duration
	// Namespace prefixes every exported metric name (default "cdmm").
	Namespace string
	// Explain is the fault-attribution ledger store behind /explain and
	// the per-site scrape series (a fresh, empty store when nil — an
	// empty store exports nothing and costs nothing).
	Explain *attr.Store
	// Kernel is the multiprogrammed kernel's telemetry store behind
	// /kernel and the cdmm_kernel_* scrape series (a fresh, empty store
	// when nil). Pass it as kernel.Config.Publish to watch a run live; an
	// empty store exports nothing and keeps scrapes byte-identical.
	Kernel *kernel.TelemetryStore
}

// Server is the telemetry daemon. Construct with New, then Start.
type Server struct {
	opt Options
	log *slog.Logger
	hub *hub

	ln      net.Listener
	srv     *http.Server
	started time.Time
	done    chan struct{}

	// lastScrape is the unix-nano time of the latest /metrics hit.
	lastScrape atomic.Int64

	// The scrape path reuses its snapshot and buffers across scrapes
	// (under scrapeMu), so a steady scraper costs no allocations per hit
	// in the registry section regardless of how many metrics exist.
	scrapeMu   sync.Mutex
	scrapeSnap obs.Snapshot
	scrapeRaw  []byte
	scrapeBuf  bytes.Buffer

	// ctx is canceled by Shutdown so SSE handlers unblock before
	// http.Server.Shutdown waits for them.
	ctx    context.Context
	cancel context.CancelFunc
}

// New builds a server (not yet listening) from opt.
func New(opt Options) *Server {
	if opt.Registry == nil {
		opt.Registry = obs.NewRegistry()
	}
	if opt.Progress == nil {
		opt.Progress = engine.NewProgress()
	}
	if opt.EventBuffer <= 0 {
		opt.EventBuffer = 256
	}
	if opt.ScrapeWindow <= 0 {
		opt.ScrapeWindow = 15 * time.Second
	}
	if opt.Namespace == "" {
		opt.Namespace = "cdmm"
	}
	if opt.Explain == nil {
		opt.Explain = attr.NewStore()
	}
	if opt.Kernel == nil {
		opt.Kernel = kernel.NewTelemetryStore()
	}
	log := opt.Log
	if log == nil {
		log = slog.New(discardHandler{})
	}
	s := &Server{opt: opt, log: log, hub: newHub(), started: time.Now()}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /progress", s.handleProgress)
	mux.HandleFunc("GET /runs/{id}", s.handleRun)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("GET /kernel", s.handleKernel)
	if opt.Pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ErrorLog:          slog.NewLogLogger(log.Handler(), slog.LevelWarn),
	}
	return s
}

// Start listens on addr (host:port; port 0 picks an ephemeral port) and
// serves in the background until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry listen %s: %w", addr, err)
	}
	s.ln = ln
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.log.Error("telemetry server stopped", "err", err)
		}
	}()
	s.log.Info("telemetry server listening", "url", s.URL())
	return nil
}

// Addr returns the bound address (valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL (valid after Start).
func (s *Server) URL() string { return "http://" + s.Addr() }

// Observer returns the attach-and-forget observer feeding this server:
// the SSE hub as tracer, the scrape registry as metrics, and the server
// itself as the gate, plus nothing else — callers layer file sinks on
// top with obs.MultiTracer when both are wanted.
func (s *Server) Observer() *obs.Observer {
	return &obs.Observer{Tracer: s.hub, Metrics: s.opt.Registry, Gate: s}
}

// Progress returns the tracker backing /progress (never nil after New).
func (s *Server) Progress() *engine.Progress { return s.opt.Progress }

// Open implements obs.Gate: instrumentation is live while someone is
// watching — an SSE subscriber connected, or a Prometheus scrape within
// the scrape window.
func (s *Server) Open() bool {
	if s.hub.subscribers() > 0 {
		return true
	}
	last := s.lastScrape.Load()
	return last != 0 && time.Since(time.Unix(0, last)) < s.opt.ScrapeWindow
}

// Shutdown stops the server: SSE streams are closed first, each after
// writing the frames already queued for it (so Shutdown neither drops
// the stream's tail nor waits on it forever), then the listener drains
// gracefully within ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	err := s.srv.Shutdown(ctx)
	if s.done != nil {
		<-s.done
	}
	s.log.Info("telemetry server stopped", "events", s.hub.total.Load(), "dropped_frames", s.hub.drops.Load())
	return err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.opt.Progress.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"uptime_ms":   float64(time.Since(s.started)) / float64(time.Millisecond),
		"subscribers": s.hub.subscribers(),
		"gate_open":   s.Open(),
		"idle":        snap.Idle,
		"seq":         snap.Seq,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.lastScrape.Store(time.Now().UnixNano())
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()
	s.renderMetrics(&s.scrapeBuf)
	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(s.scrapeBuf.Bytes())
}

// renderMetrics assembles the full exposition into buf (reset first).
// The registry section goes through the pooled snapshot and byte slice,
// which the alloc test pins at zero per-scrape allocations; callers hold
// scrapeMu when using the server's pooled state.
func (s *Server) renderMetrics(buf *bytes.Buffer) {
	buf.Reset()
	s.opt.Registry.SnapshotInto(&s.scrapeSnap)
	s.scrapeRaw = s.scrapeSnap.AppendPrometheus(s.scrapeRaw[:0], s.opt.Namespace)
	buf.Write(s.scrapeRaw)
	s.writeServeMetrics(buf)
	s.writeExplainMetrics(buf)
	s.writeKernelMetrics(buf)
}

// writeServeMetrics appends the server's own series to a scrape. It
// writes the pieces straight into the buffer rather than through fmt,
// whose operand boxing would cost allocations on every scrape.
func (s *Server) writeServeMetrics(buf *bytes.Buffer) {
	ns := s.opt.Namespace
	counts := s.opt.Progress.Snapshot().Counts
	write := func(parts ...string) {
		for _, p := range parts {
			buf.WriteString(p)
		}
	}
	var num [20]byte
	value := func(v int64) {
		buf.Write(strconv.AppendInt(num[:0], v, 10))
		buf.WriteByte('\n')
	}
	gauge := func(name, typ, help string, v int64) {
		write("# HELP ", ns, name, " ", help, "\n# TYPE ", ns, name, " ", typ, "\n", ns, name, " ")
		value(v)
	}
	gauge("_serve_subscribers", "gauge", "connected SSE event subscribers", int64(s.hub.subscribers()))
	gauge("_serve_events_total", "counter", "SSE frames fanned out", s.hub.total.Load())
	gauge("_serve_dropped_frames_total", "counter", "SSE frames dropped at slow subscribers", s.hub.drops.Load())
	write("# HELP ", ns, "_serve_runs engine runs by lifecycle state\n# TYPE ", ns, "_serve_runs gauge\n")
	for _, state := range []string{"queued", "running", "done", "failed", "degraded"} {
		write(ns, `_serve_runs{state="`, state, `"} `)
		value(int64(counts[state]))
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.opt.Progress.Snapshot())
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "run id must be an integer"})
		return
	}
	rs, ok := s.opt.Progress.Run(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such run"})
		return
	}
	writeJSON(w, http.StatusOK, rs)
}

// handleEvents streams the merged event stream as SSE. The subscriber
// counts toward the gate from before the hello frame is flushed, so a
// client that connects and then launches a run never misses it, and
// Shutdown flushes the frames still queued for it before closing.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	sub := s.hub.subscribe(s.opt.EventBuffer)
	defer s.hub.unsubscribe(sub)
	s.log.Info("event subscriber connected", "remote", r.RemoteAddr, "subscribers", s.hub.subscribers())
	defer s.log.Info("event subscriber disconnected", "remote", r.RemoteAddr)

	if _, err := w.Write(appendFrame(nil, 0, "hello", []byte(`{"service":"cdmm","buffer":`+strconv.Itoa(s.opt.EventBuffer)+`}`))); err != nil {
		return
	}
	fl.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			// Shutdown: deliver the frames already queued — the tail of
			// the stream, including a run's closing end event — then end
			// the stream. Frames emitted after this point are not waited
			// for.
			for n := len(sub.ch); n > 0; n-- {
				if _, err := w.Write(<-sub.ch); err != nil {
					return
				}
			}
			fl.Flush()
			return
		case <-heartbeat.C:
			if _, err := w.Write([]byte(": keepalive\n\n")); err != nil {
				return
			}
			fl.Flush()
		case frame := <-sub.ch:
			if _, err := w.Write(frame); err != nil {
				return
			}
			if n := sub.dropped.Swap(0); n > 0 {
				s.log.Warn("slow event subscriber dropped frames", "remote", r.RemoteAddr, "dropped", n)
				notice := appendFrame(nil, s.hub.seq.Add(1), "dropped",
					[]byte(`{"dropped":`+strconv.FormatInt(n, 10)+`}`))
				if _, err := w.Write(notice); err != nil {
					return
				}
			}
			fl.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// discardHandler is a no-op slog handler (slog.DiscardHandler arrived
// after this module's Go baseline).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
