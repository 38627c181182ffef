package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cdmm/internal/attr"
	"cdmm/internal/core"
	"cdmm/internal/explain"
)

// explainFlags declares explain, which attributes every page fault of a
// program to its source loop, statement and directive: the ranked
// hotspot table, directive coverage, and per-site CD-vs-LRU/WS deltas,
// with optional Perfetto (Chrome trace-event) and flamegraph (folded
// stacks) exports.
func explainFlags(fs *flag.FlagSet) func(string) error {
	level := intFlagMin(fs, "level", 1, 1, "CD directive-set stratum `N` (at least 1)")
	top := fs.Int("top", 12, "rows in the hotspot table")
	chrome := fs.String("chrome", "", "write a Chrome trace-event JSON (Perfetto) fault timeline to this file")
	folded := fs.String("folded", "", "write folded flamegraph stacks (site;...;expr faults) to this file")
	j := registerJFlag(fs)
	of := registerObsFlags(fs)
	return withProgram(func(p *core.Program) error {
		if *of.events != "" || *of.metrics != "" {
			// Rejected before activate creates either file.
			return errors.New("explain does not take -events or -metrics: attributed runs emit no events; use -chrome or -folded")
		}
		tr, err := p.Trace()
		if err != nil {
			return err
		}
		return of.withObs(func() error {
			eng := newEngine(*j, of.observer) // after activate: a -serve tracker attaches here
			rep, err := explain.Analyze(eng, tr, *level)
			if err != nil {
				return err
			}
			fmt.Print(explain.Render(rep, *top))
			if store := of.explainStore(); store != nil {
				store.Put(p.Name+"/CD", rep.CD)
				store.Put(p.Name+"/LRU", rep.LRU)
				store.Put(p.Name+"/WS", rep.WS)
			}
			if *chrome != "" {
				if err := writeExport(*chrome, rep.CD, attr.WriteChromeTrace); err != nil {
					return err
				}
				fmt.Printf("wrote Chrome trace-event timeline to %s\n", *chrome)
			}
			if *folded != "" {
				if err := writeExport(*folded, rep.CD, attr.WriteFolded); err != nil {
					return err
				}
				fmt.Printf("wrote folded flamegraph stacks to %s\n", *folded)
			}
			return nil
		})
	})
}

// writeExport streams one ledger exporter into a freshly created file.
func writeExport(path string, led *attr.Ledger, write func(w io.Writer, l *attr.Ledger) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f, led)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
