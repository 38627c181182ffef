package trace

import (
	"bytes"
	"errors"
	"fmt"
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

// fixture returns the bytes of a checked-in file.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestEncodeDecodeRoundTrip: sampleTrace, encoded as CDT3, decodes to
// its counters, event stream and side tables.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	got, err := Read(bytes.NewReader(encodeCDT3(t, tr, 0)))
	if err != nil {
		t.Fatal(err)
	}
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
		"truncated": []byte("CDT3\x02AB\x00"),
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
	// A trace "X" with an empty alloc table and one event: an EvAlloc
	// indexing entry 1 of it.
	tr := New("X")
	tr.Append(Event{Kind: EvAlloc, Arg: 1})
	if _, err := Read(bytes.NewReader(encodeCDT3(t, tr, 0))); err == nil {
		t.Error("expected out-of-range index error")
	}
	// The same event decodes once the table holds an entry 1.
	tr.Allocs = make([]AllocDirective, 2)
	if _, err := Read(bytes.NewReader(encodeCDT3(t, tr, 0))); err != nil {
		t.Errorf("valid one-directive trace rejected: %v", err)
	}
}

func TestDecodeRejectsHugeString(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("CDT3")
	// A name length of 2^30.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x04})
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("expected length guard error, got %v", err)
	}
}

// TestRowFixtures: CDT3 is the one trace format. The checked-in row
// format files (CDT1, and CDT2 with a site column) fail both decoders
// on their magic, with a *DecodeError naming it.
func TestRowFixtures(t *testing.T) {
	for name, magic := range map[string]string{"sample.cdt1": "CDT1", "sample.cdt2": "CDT2"} {
		want := fmt.Sprintf(`trace: decode magic: bad magic %q (want "CDT3")`, magic)
		var de *DecodeError
		_, err := Read(bytes.NewReader(fixture(t, name)))
		if !errors.As(err, &de) || err.Error() != want {
			t.Errorf("%s: Read returned %v, want %s", name, err, want)
		}
		_, err = OpenCDT3(filepath.Join("testdata", name))
		if !errors.As(err, &de) || err.Error() != want {
			t.Errorf("%s: OpenCDT3 returned %v, want %s", name, err, want)
		}
	}
}
