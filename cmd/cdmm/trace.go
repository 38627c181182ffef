// cdmm trace: summarize a trace — a workload's or a .f program's,
// executed, or a CDT3 file's — and write it as CDT3 at any chunk size,
// with a byte-exact round-trip check and a per-section size breakdown.
// CDT3 is the one trace format cdmm reads and writes, and a trace file
// streams from its input to its output in O(chunk) memory.
package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

func traceFlags(fs *flag.FlagSet) func(string) error {
	out := fs.String("o", "", "write the trace to this `file` (CDT3, whatever its name)")
	chunk := intFlagMin(fs, "chunk", trace.DefaultChunkEvents, 1, "CDT3 chunk size in `N` events")
	repeat := intFlagMin(fs, "repeat", 1, 1, "replicate the reference string `N` times in the output (drops directives; for big-trace streaming tests)")
	check := fs.Bool("check", false, "re-read the output and verify it re-encodes byte-identically")
	stat := fs.Bool("stat", false, "print per-section CDT3 sizes")
	run := withOperand(func(in *operand) error {
		src := in.src
		if in.path != "" && *out == "" && !*stat {
			// Nothing below reads the file's stream: walk it through the
			// checking decoder before printing its header's totals.
			if err := trace.Walk(src, trace.CursorOpts{}, func(trace.Block) bool { return true }); err != nil {
				return err
			}
		}
		fmt.Println(src.Meta().Summary())
		if *repeat > 1 {
			src = trace.Repeat(src, *repeat)
		}
		if *out == "" && !*stat {
			return nil
		}
		if in.path != "" && sameFile(in.path, *out) {
			return fmt.Errorf("-o %s is the input trace, which streams while the output is written", *out)
		}
		var st trace.CDT3Stats
		n, err := writeTrace(*out, src, *chunk, &st)
		if err != nil {
			return err
		}
		if *check {
			if err := checkRoundTrip(*out, *chunk); err != nil {
				return err
			}
			fmt.Println("round-trip check: ok (re-encode is byte-identical)")
		}
		if *stat {
			var inLen int64
			if in.path != "" {
				fi, err := os.Stat(in.path)
				if err != nil {
					return err
				}
				inLen = fi.Size()
			}
			printCDT3Stats(src.Meta().Name, &st, inLen)
		}
		if *out != "" {
			fmt.Printf("wrote %d bytes to %s\n", n, *out)
		}
		return nil
	})
	return func(name string) error {
		switch {
		case name == "" && (!*stat || *out != ""):
			return errors.New("trace: missing [prog|file.f|trace-file] (only -stat runs without one, for every workload)")
		case name == "":
			return statAll(*chunk)
		case *repeat > 1 && *out == "":
			return errors.New("-repeat needs an -o output")
		case *check && *out == "":
			return errors.New("-check needs an -o output")
		}
		return run(name)
	}
}

// writeTrace encodes src as CDT3 into the file at path, or nowhere when
// path is empty, filling st. A failed write removes the file.
func writeTrace(path string, src trace.Source, chunk int, st *trace.CDT3Stats) (int64, error) {
	if path == "" {
		return trace.WriteCDT3Stats(io.Discard, src, chunk, st)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := trace.WriteCDT3Stats(f, src, chunk, st)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return n, err
}

// sameFile reports whether paths a and b name one existing file.
func sameFile(a, b string) bool {
	fa, err := os.Stat(a)
	if err != nil {
		return false
	}
	fb, err := os.Stat(b)
	return err == nil && os.SameFile(fa, fb)
}

// checkRoundTrip re-opens the CDT3 file at path and checks, streaming
// both, that a second encoding of what it decodes to reproduces its
// bytes: the two SHA-256 digests match.
func checkRoundTrip(path string, chunk int) error {
	src, err := trace.OpenCDT3(path)
	if err != nil {
		return fmt.Errorf("round-trip: decoding the written output failed: %w", err)
	}
	defer src.Close()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	written, again := sha256.New(), sha256.New()
	n, err := io.Copy(written, f)
	if err != nil {
		return err
	}
	m, err := trace.WriteCDT3(again, src, chunk)
	if err != nil {
		return fmt.Errorf("round-trip: %w", err)
	}
	if !bytes.Equal(written.Sum(nil), again.Sum(nil)) {
		return fmt.Errorf("round-trip: CDT3 re-encode differs (%d bytes vs %d written)", m, n)
	}
	return nil
}

// statAll prints the CDT3 section breakdown for every built-in workload.
func statAll(chunk int) error {
	fmt.Printf("%-8s %9s %9s %8s %8s %8s %8s\n",
		"program", "cdt3(B)", "pages", "dirs", "sites", "tables", "frame")
	for _, w := range workloads.All() {
		p, err := loadProgram(w.Name)
		if err != nil {
			return err
		}
		tr, err := p.Trace()
		if err != nil {
			return err
		}
		var st trace.CDT3Stats
		if _, err := trace.WriteCDT3Stats(io.Discard, tr, chunk, &st); err != nil {
			return err
		}
		fmt.Printf("%-8s %9d %9d %8d %8d %8d %8d\n",
			tr.Name, st.TotalBytes, st.PageBytes, st.DirBytes, st.SiteBytes,
			st.HeaderBytes+st.TableBytes, st.FrameBytes)
	}
	return nil
}

func printCDT3Stats(name string, st *trace.CDT3Stats, inLen int64) {
	fmt.Printf("%s: CDT3 %d bytes in %d chunks (%d events, %d refs)\n",
		name, st.TotalBytes, st.Chunks, st.Events, st.Refs)
	fmt.Printf("  header  %9d B\n", st.HeaderBytes)
	fmt.Printf("  tables  %9d B\n", st.TableBytes)
	fmt.Printf("  pages   %9d B  (delta+varint column)\n", st.PageBytes)
	fmt.Printf("  dirs    %9d B  (directive side-band)\n", st.DirBytes)
	fmt.Printf("  sites   %9d B  (RLE site runs)\n", st.SiteBytes)
	fmt.Printf("  framing %9d B\n", st.FrameBytes)
	if inLen > 0 {
		fmt.Printf("  input file %d B -> %.2fx\n", inLen, float64(inLen)/float64(st.TotalBytes))
	}
}
