// cdmm convert: re-encode a trace — a CDT3 file, re-chunked, or a
// workload or .f program, traced — as CDT3, with a byte-exact
// round-trip check and a per-section size breakdown. CDT3 is the one
// trace format cdmm reads and writes, and the streaming replay path
// (cdmm replay) consumes it in O(chunk) memory.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

func convertFlags(fs *flag.FlagSet) func(string) error {
	out := fs.String("o", "", "output CDT3 trace file")
	chunk := fs.Int("chunk", trace.DefaultChunkEvents, "CDT3 chunk size in events")
	check := fs.Bool("check", false, "verify the output decodes and re-encodes byte-identically")
	stat := fs.Bool("stat", false, "print per-section sizes")
	return func(in string) error {
		if in == "" {
			if *stat {
				return convertStatAll(*chunk)
			}
			return fmt.Errorf("missing input (trace file, workload, or .f program); or -stat for the suite-wide breakdown")
		}

		tr, inBytes, err := loadTraceInput(in)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		var stats trace.CDT3Stats
		if _, err := trace.WriteCDT3Stats(&buf, tr, *chunk, &stats); err != nil {
			return err
		}
		outBytes := buf.Bytes()

		if *check {
			if err := checkRoundTrip(outBytes, *chunk); err != nil {
				return err
			}
			fmt.Println("round-trip check: ok (re-encode is byte-identical)")
		}
		if *stat {
			printCDT3Stats(tr.Name, &stats, inBytes)
		}
		if *out != "" {
			if err := os.WriteFile(*out, outBytes, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %d bytes to %s\n", len(outBytes), *out)
		} else if !*stat && !*check {
			fmt.Printf("%s: %d events -> %d bytes (no -o given, nothing written)\n", tr.Name, stats.Events, len(outBytes))
		}
		return nil
	}
}

// loadTraceInput resolves the convert input: a trace file, recognized by
// its content, whose size it also returns, or a workload/program name
// compiled and traced on the fly (size 0).
func loadTraceInput(in string) (*trace.Trace, int64, error) {
	if !isTraceFile(in) {
		p, err := loadProgram(in)
		if err != nil {
			return nil, 0, err
		}
		tr, err := p.Trace()
		return tr, 0, err
	}
	raw, err := os.ReadFile(in)
	if err != nil {
		return nil, 0, err
	}
	tr, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", in, err)
	}
	return tr, int64(len(raw)), nil
}

// checkRoundTrip decodes the freshly encoded CDT3 output and verifies
// that re-encoding the decoded trace reproduces it byte for byte.
func checkRoundTrip(outBytes []byte, chunk int) error {
	tr, err := trace.Read(bytes.NewReader(outBytes))
	if err != nil {
		return fmt.Errorf("round-trip: decoding the converted output failed: %w", err)
	}
	var again bytes.Buffer
	if _, err := trace.WriteCDT3(&again, tr, chunk); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), outBytes) {
		return fmt.Errorf("round-trip: CDT3 re-encode differs (%d bytes vs %d written)", again.Len(), len(outBytes))
	}
	return nil
}

// convertStatAll prints the CDT3 section breakdown for every built-in
// workload.
func convertStatAll(chunk int) error {
	fmt.Printf("%-8s %9s %9s %8s %8s %8s %8s\n",
		"program", "cdt3(B)", "pages", "dirs", "sites", "tables", "frame")
	for _, w := range workloads.All() {
		tr, _, err := loadTraceInput(w.Name)
		if err != nil {
			return err
		}
		var st trace.CDT3Stats
		if _, err := trace.WriteCDT3Stats(&bytes.Buffer{}, tr, chunk, &st); err != nil {
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
