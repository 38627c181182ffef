package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the binary trace decoder. The
// contract under fuzzing: Read never panics, every failure is a
// structured *DecodeError, and anything that decodes successfully
// round-trips through WriteCDT3 to the same stream. The seed corpus
// below runs as ordinary unit tests during plain `go test`.
func FuzzDecode(f *testing.F) {
	// Bad magics, among them the row formats CDT1 and CDT2.
	f.Add(fixture(f, "sample.cdt1"))
	f.Add([]byte{})
	f.Add([]byte("NOPE1234"))
	f.Add([]byte("CDT1"))
	f.Add([]byte("CDT1\x00\x00\x00\x00\x01"))
	f.Add([]byte("CDT1\x02AB\x00\x00\x00\x03\x00\x04\x00\x06"))
	f.Add(fixture(f, "sample.cdt2"))
	// A name length claiming 2^30 bytes.
	f.Add([]byte{'C', 'D', 'T', '3', 0x80, 0x80, 0x80, 0x80, 0x04})
	// Columnar seeds: valid CDT3 streams (siteless, sited, tiny chunks)
	// plus a bare header, so mutations explore the chunk framing.
	for _, seed := range cdt3Seeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("decode failure is not a *DecodeError: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := WriteCDT3(&out, tr, 0); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
		tr2, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if tr2.Meta() != tr.Meta() {
			t.Fatalf("round-trip mismatch: %+v vs %+v", tr2.Meta(), tr.Meta())
		}
		var again bytes.Buffer
		if _, err := WriteCDT3(&again, tr2, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatal("re-encode of the re-decoded trace differs")
		}
	})
}

// cdt3Seeds builds the CDT3 corpus shared by FuzzDecode and
// FuzzDecodeCDT3.
func cdt3Seeds(f *testing.F) [][]byte {
	encode := func(tr *Trace, chunk int) []byte {
		var buf bytes.Buffer
		if _, err := WriteCDT3(&buf, tr, chunk); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	full := encode(sampleTrace(), 0)
	return [][]byte{
		full,
		encode(sampleTrace(), 3),
		encode(sitedSampleTrace(), 7),
		encode(New("EMPTY"), 0),
		full[:len(full)-1],         // missing terminator
		full[:len(full)*3/4],       // truncated mid-chunk
		[]byte("CDT3"),             // magic only
		[]byte("CDT3\x00\x02"),     // bad flags
		[]byte("CDT3\x00\x00\xff"), // totals cut short
		hostileEvents,
		hostileDistinct,
	}
}

// FuzzDecodeCDT3 cross-checks the two CDT3 decoders on arbitrary bytes:
// the full materializing decoder (Read) and the O(chunk) streaming
// cursor (OpenCDT3). Neither may panic, every failure must be a
// structured *DecodeError, the two must accept the same streams (both
// check every header total, distinct pages and max page included), and
// an accepted stream must replay exactly the declared totals.
func FuzzDecodeCDT3(f *testing.F) {
	for _, seed := range cdt3Seeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, rerr := Read(bytes.NewReader(data))
		if rerr != nil {
			var de *DecodeError
			if !errors.As(rerr, &de) {
				t.Fatalf("Read failure is not a *DecodeError: %v", rerr)
			}
		}

		path := filepath.Join(t.TempDir(), "fuzz.cdt3")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, oerr := OpenCDT3(path)
		if oerr != nil {
			var de *DecodeError
			if !errors.As(oerr, &de) {
				t.Fatalf("OpenCDT3 failure is not a *DecodeError: %v", oerr)
			}
			if rerr == nil && len(data) >= 4 && string(data[:4]) == traceMagic {
				t.Fatalf("Read accepted what OpenCDT3 rejected: %v", oerr)
			}
			return
		}
		cur := src.Blocks(CursorOpts{WithSites: true})
		defer cur.Close()
		events, refs := 0, 0
		var b Block
		for cur.Next(&b) {
			events += b.Events()
			refs += len(b.Pages)
		}
		if serr := cur.Err(); serr != nil {
			var de *DecodeError
			if !errors.As(serr, &de) {
				t.Fatalf("cursor failure is not a *DecodeError: %v", serr)
			}
			if rerr == nil {
				t.Fatalf("Read accepted what the cursor rejected: %v", serr)
			}
			return
		}
		if rerr != nil {
			t.Fatalf("the cursor accepted what Read rejected: %v", rerr)
		}
		meta := src.Meta()
		if events != meta.Events || refs != meta.Refs {
			t.Fatalf("stream replayed %d events / %d refs, header declares %d / %d",
				events, refs, meta.Events, meta.Refs)
		}
		if tr.Meta().Events != events || tr.Refs != refs {
			t.Fatalf("stream %d events / %d refs, full decode %d / %d",
				events, refs, tr.Meta().Events, tr.Refs)
		}
	})
}
