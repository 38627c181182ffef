package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cdmm/internal/engine"
	"cdmm/internal/obs"
	"cdmm/internal/serve"
)

// serveProgress and serveLogger, when non-nil, are picked up by every
// engine newEngine builds, so a telemetry server started by `cdmm
// serve` (or the -serve flag) tracks the plans of whatever command runs
// under it. serveObserver is the `cdmm serve` run observer, the one a
// nested command observes its runs through when it asks for no sinks of
// its own. They are process-wide because commands construct engines at
// several layers; only the serve paths write them.
var (
	serveProgress *engine.Progress
	serveLogger   *slog.Logger
	serveObserver *obs.Observer
)

// serveTestHook, when non-nil, replaces the wait-for-SIGINT loop of a
// bare `cdmm serve` and runs after a nested command completes; tests
// use it to talk to the live server.
var serveTestHook func(*serve.Server)

// newServeLogger builds the structured logger the serve paths share.
func newServeLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// serveFlags declares serve, the live telemetry daemon. With a nested
// command after `--` it runs that command with telemetry attached and
// keeps serving for -linger afterwards; without one it serves until
// SIGINT.
func serveFlags(fs *flag.FlagSet) func(string) error {
	addr := fs.String("addr", "127.0.0.1:8377", "telemetry listen address (host:port; port 0 picks one)")
	withPprof := fs.Bool("pprof", false, "expose /debug/pprof/ handlers")
	linger := fs.Duration("linger", 0, "keep serving this long after the nested command finishes")
	sseBuffer := fs.Int("sse-buffer", 256, "per-subscriber SSE frame buffer (slow clients drop the newest frames)")
	return func(string) error {
		nested := fs.Args() // everything after --

		logger := newServeLogger()
		srv := serve.New(serve.Options{Log: logger, Pprof: *withPprof, EventBuffer: *sseBuffer})
		if err := srv.Start(*addr); err != nil {
			return err
		}
		serveProgress = srv.Progress()
		serveLogger = logger
		serveObserver = srv.Observer()
		defer func() {
			serveObserver = nil
			serveProgress = nil
			serveLogger = nil
		}()

		var cmdErr error
		if len(nested) > 0 {
			if nested[0] == "serve" {
				cmdErr = fmt.Errorf("serve cannot nest another serve")
			} else {
				cmdErr = runCommand(nested[0], nested[1:])
			}
			if *linger > 0 {
				logger.Info("nested command finished, lingering", "linger", *linger, "url", srv.URL())
				time.Sleep(*linger)
			}
			if serveTestHook != nil {
				serveTestHook(srv)
			}
		} else if serveTestHook != nil {
			serveTestHook(srv)
		} else {
			fmt.Fprintf(os.Stderr, "cdmm serve: listening on %s (Ctrl-C to stop)\n", srv.URL())
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			<-sig
			signal.Stop(sig)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); cmdErr == nil {
			cmdErr = err
		}
		return cmdErr
	}
}
