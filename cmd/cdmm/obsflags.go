package main

import (
	"context"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cdmm/internal/attr"
	"cdmm/internal/kernel"
	"cdmm/internal/obs"
	"cdmm/internal/serve"
)

// obsFlags holds the observability flags shared by sim, replay, profile
// and the table commands: structured event tracing, a metrics snapshot,
// a live telemetry server, and pprof CPU/heap profiles.
type obsFlags struct {
	events     *string
	metrics    *string
	serveAddr  *string
	cpuprofile *string
	memprofile *string

	// observer is the command's run observer once activated: the
	// requested sinks, or the enclosing `cdmm serve` observer when the
	// command asks for none (nil when neither applies). Commands hand it
	// to newEngine and to their direct simulator calls.
	observer *obs.Observer

	sink *obs.JSONLSink
	reg  *obs.Registry
	srv  *serve.Server
	cpu  *os.File
}

// registerObsFlags adds the flags to fs.
func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	f := &obsFlags{}
	f.events = fs.String("events", "", "write a JSONL structured event trace to this file")
	f.metrics = fs.String("metrics", "", "write a JSON metrics snapshot to this file")
	f.serveAddr = fs.String("serve", "", "expose live telemetry (/metrics, /progress, /events) at this host:port for the command's duration")
	f.cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	f.memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file")
	return f
}

// activate opens the requested sinks, builds the command's run observer
// and starts CPU profiling. Call it before newEngine: a -serve telemetry
// server attaches its progress tracker to every engine built
// afterwards. The returned finish func must be called exactly once
// after the command's work to flush and close everything; its error
// must be propagated.
func (f *obsFlags) activate() (func() error, error) {
	var o obs.Observer
	if *f.events != "" {
		file, err := os.Create(*f.events)
		if err != nil {
			return nil, err
		}
		f.sink = obs.NewJSONLSink(file)
		o.Tracer = f.sink
	}
	if *f.metrics != "" {
		f.reg = obs.NewRegistry()
		o.Metrics = f.reg
	}
	if *f.serveAddr != "" {
		logger := newServeLogger()
		// Share the -metrics registry with the scrape endpoint when both
		// are requested, so the JSON snapshot and Prometheus agree.
		f.srv = serve.New(serve.Options{Registry: f.reg, Log: logger})
		if err := f.srv.Start(*f.serveAddr); err != nil {
			if f.sink != nil {
				f.sink.Close()
			}
			return nil, err
		}
		so := f.srv.Observer()
		if o.Tracer != nil {
			o.Tracer = obs.MultiTracer{o.Tracer, so.Tracer}
		} else {
			o.Tracer = so.Tracer
		}
		o.Metrics = so.Metrics
		f.reg = so.Metrics
		if *f.events == "" && *f.metrics == "" {
			// Telemetry only: gate on actual clients so unwatched runs
			// keep the un-instrumented fast path. Explicit file sinks
			// bypass the gate — they must capture everything.
			o.Gate = f.srv
		}
		serveProgress = f.srv.Progress()
		serveLogger = logger
	}
	f.observer = serveObserver
	if o.Tracer != nil || o.Metrics != nil {
		f.observer = &o
	}
	if *f.cpuprofile != "" {
		file, err := os.Create(*f.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return nil, err
		}
		f.cpu = file
	}
	return f.finish, nil
}

// explainStore returns the live -serve server's attribution store, or
// nil when no telemetry server is attached: commands that build ledgers
// publish them there so /explain and the per-site scrape series see them.
func (f *obsFlags) explainStore() *attr.Store {
	if f.srv == nil {
		return nil
	}
	return f.srv.Explain()
}

// kernelStore returns the live -serve server's kernel telemetry store,
// or nil when no telemetry server is attached: a kernel run publishes
// into it so /kernel and the cdmm_kernel_* scrape series go live.
func (f *obsFlags) kernelStore() *kernel.TelemetryStore {
	if f.srv == nil {
		return nil
	}
	return f.srv.Kernel()
}

func (f *obsFlags) finish() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		keep(f.srv.Shutdown(ctx))
		cancel()
		serveProgress = nil
		serveLogger = nil
	}
	if f.cpu != nil {
		pprof.StopCPUProfile()
		keep(f.cpu.Close())
	}
	if *f.memprofile != "" {
		file, err := os.Create(*f.memprofile)
		if err != nil {
			keep(err)
		} else {
			runtime.GC() // materialize final live-heap state
			keep(pprof.WriteHeapProfile(file))
			keep(file.Close())
		}
	}
	if f.sink != nil {
		keep(f.sink.Close())
	}
	if *f.metrics != "" && f.reg != nil {
		file, err := os.Create(*f.metrics)
		if err != nil {
			keep(err)
		} else {
			keep(f.reg.WriteJSON(file))
			keep(file.Close())
		}
	}
	return first
}

// withObs parses nothing itself: it runs body between activate and
// finish, merging errors.
func (f *obsFlags) withObs(body func() error) error {
	finish, err := f.activate()
	if err != nil {
		return err
	}
	err = body()
	if ferr := finish(); err == nil {
		err = ferr
	}
	return err
}
