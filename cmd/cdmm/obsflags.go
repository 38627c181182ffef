package main

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"

	"cdmm/internal/obs"
)

// obsFlags holds the observability flags many commands share (cdmm help
// lists them): structured event tracing, a metrics snapshot, and pprof
// CPU/heap profiles.
type obsFlags struct {
	events     *string
	metrics    *string
	cpuprofile *string
	memprofile *string

	// observer is the command's run observer once activated (see
	// runObserver; nil when it observes nothing). Commands hand it to
	// newEngine and to their direct simulator calls.
	observer *obs.Observer

	sink *obs.JSONLSink
	cpu  *os.File
}

// registerObsFlags adds the flags to fs.
func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	f := &obsFlags{}
	f.events = fs.String("events", "", "write a JSONL structured event trace to this `file`")
	f.metrics = fs.String("metrics", "", "write a JSON metrics snapshot (counters, log2 histograms) to this `file`")
	f.cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this `file`")
	f.memprofile = fs.String("memprofile", "", "write a pprof heap profile to this `file`")
	return f
}

// runObserver is the one rule deciding a command's run observer, from
// the file sinks it opened (tracer and registry, either nil) and the
// served telemetry server. With a file sink open, the server sees every
// run too: an -events tracer is teed with the server's event hub, the
// server's registry stands in for the command's own (so the -metrics
// file and the scrape agree), and no gate applies, because a file sink
// captures everything. A -metrics-only run stays tracer-free, as it is
// without a server. With no file sink the command observes through the
// server's gated observer, or through nothing when no server is served.
func runObserver(tracer obs.Tracer, reg *obs.Registry) *obs.Observer {
	if tracer == nil && reg == nil {
		if served == nil {
			return nil
		}
		return served.Observer()
	}
	o := &obs.Observer{Tracer: tracer, Metrics: reg}
	if served != nil {
		so := served.Observer()
		if tracer != nil {
			o.Tracer = obs.MultiTracer{tracer, so.Tracer}
		}
		o.Metrics = so.Metrics
	}
	return o
}

// activate opens the requested sinks, decides the command's run
// observer and starts CPU profiling. The returned finish func must be
// called exactly once after the command's work to flush and close
// everything; its error must be propagated. A failed activation leaves
// no sink open and no file behind.
func (f *obsFlags) activate() (func() error, error) {
	var tracer obs.Tracer
	if *f.events != "" {
		file, err := os.Create(*f.events)
		if err != nil {
			return nil, err
		}
		f.sink = obs.NewJSONLSink(file)
		tracer = f.sink
	}
	if *f.cpuprofile != "" {
		file, err := os.Create(*f.cpuprofile)
		if err == nil {
			if err = pprof.StartCPUProfile(file); err != nil {
				file.Close()
				os.Remove(*f.cpuprofile)
			}
		}
		if err != nil {
			if f.sink != nil {
				f.sink.Close()
				os.Remove(*f.events)
				f.sink = nil
			}
			return nil, err
		}
		f.cpu = file
	}
	var reg *obs.Registry
	if *f.metrics != "" {
		reg = obs.NewRegistry()
	}
	f.observer = runObserver(tracer, reg)
	return f.finish, nil
}

func (f *obsFlags) finish() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
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
	if *f.metrics != "" {
		file, err := os.Create(*f.metrics)
		if err != nil {
			keep(err)
		} else {
			keep(f.observer.Metrics.WriteJSON(file))
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
