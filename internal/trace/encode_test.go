package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
)

func sampleTrace() *Trace {
	tr := New("SAMPLE")
	d1 := &directive.Allocate{Arms: []directive.Arm{{PI: 3, X: 111}, {PI: 1, X: 4}}}
	d2 := &directive.Allocate{Arms: []directive.Arm{{PI: 2, X: 40}}}
	tr.AddAlloc(d1)
	tr.AddRef(0)
	tr.AddRef(5)
	tr.AddLock(2, 7, []mem.Page{5, 6})
	tr.AddAlloc(d2)
	for i := 0; i < 100; i++ {
		tr.AddRef(mem.Page(i % 9))
	}
	tr.AddUnlock([]mem.Page{5, 6})
	return tr
}

// readFixture decodes a checked-in trace file.
func readFixture(t testing.TB, name string) (*Trace, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tr, raw
}

// TestEncodeDecodeRoundTrip: the CDT1 fixture, written by the row
// encoder from sampleTrace, decodes to sampleTrace's counters, event
// stream and side tables.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	got, _ := readFixture(t, "sample.cdt1")
	if got.Name != tr.Name {
		t.Errorf("name = %q, want %q", got.Name, tr.Name)
	}
	if got.Refs != tr.Refs || got.Distinct != tr.Distinct || got.MaxPage() != tr.MaxPage() {
		t.Errorf("counters = %d/%d/%d, want %d/%d/%d", got.Refs, got.Distinct, got.MaxPage(), tr.Refs, tr.Distinct, tr.MaxPage())
	}
	sameEvents(t, eventsOf(t, got), eventsOf(t, tr), "events")
	// Side tables.
	if len(got.Allocs) != 2 || got.Allocs[0].Arms[0].X != 111 {
		t.Errorf("alloc table wrong: %+v", got.Allocs)
	}
	if len(got.LockSets) != 1 || got.LockSets[0].PJ != 2 || got.LockSets[0].Pages[1] != 6 {
		t.Errorf("lock table wrong: %+v", got.LockSets)
	}
	if len(got.UnlockSets) != 1 || len(got.UnlockSets[0]) != 2 {
		t.Errorf("unlock table wrong: %+v", got.UnlockSets)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE1234"),
		"truncated": []byte("CDT1\x02AB\x00"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(data)); err == nil {
				t.Error("expected decode error")
			}
		})
	}
}

func TestDecodeRejectsBadEventIndex(t *testing.T) {
	// A CDT1 trace "X" with empty side tables and one event: an EvAlloc
	// indexing entry 1 of the empty alloc table.
	data := []byte("CDT1\x01X\x00\x00\x00\x01\x01\x02")
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("expected out-of-range index error")
	}
	// The same event as a reference to page 1 decodes.
	data[len(data)-2] = byte(EvRef)
	if _, err := Read(bytes.NewReader(data)); err != nil {
		t.Errorf("valid one-reference trace rejected: %v", err)
	}
}

func TestDecodeRejectsHugeString(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("CDT1")
	// A name length of 2^30.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x04})
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("expected length guard error, got %v", err)
	}
}

// TestRowFixtures: CDT1/CDT2 files are read-only inputs. The checked-in
// fixtures (written by the row encoder from sampleTrace and
// sitedSampleTrace) must decode to the same stream as the in-memory
// traces, compared through their CDT3 bytes.
func TestRowFixtures(t *testing.T) {
	for file, tr := range map[string]*Trace{
		"sample.cdt1": sampleTrace(),
		"sample.cdt2": sitedSampleTrace(),
	} {
		got, _ := readFixture(t, file)
		if !bytes.Equal(encodeCDT3(t, got, 0), encodeCDT3(t, tr, 0)) {
			t.Errorf("%s: decoded stream differs from the in-memory trace", file)
		}
	}
}
