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

	"cdmm/internal/serve"
)

// served is the telemetry server `cdmm serve` runs its nested command
// under, and nil at any other time. The nested command reads it where it
// builds engines and observers (newEngine, runObserver) and publishes
// its attribution ledgers and kernel telemetry into its stores. It is
// process-wide because commands construct engines at several layers;
// only serve writes it.
var served *serve.Server

// serveTestHook, when non-nil, replaces the wait-for-SIGINT loop of a
// bare `cdmm serve` and runs after a nested command completes; tests
// use it to talk to the live server.
var serveTestHook func(*serve.Server)

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

		logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
		srv := serve.New(serve.Options{Log: logger, Pprof: *withPprof, EventBuffer: *sseBuffer})
		if err := srv.Start(*addr); err != nil {
			return err
		}

		var cmdErr error
		if len(nested) > 0 {
			if nested[0] == "serve" {
				cmdErr = fmt.Errorf("serve cannot nest another serve")
			} else {
				served = srv
				cmdErr = runCommand(nested[0], nested[1:])
				served = nil
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
