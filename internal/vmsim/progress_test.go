package vmsim

import (
	"testing"

	"cdmm/internal/core"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

// compiled returns the named workload and its trace from the shared
// compile cache.
func compiled(t *testing.T, name string) (*core.Program, *trace.Trace) {
	t.Helper()
	c, err := workloads.Compile(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return c, tr
}

// progressTrace compiles a real workload trace big enough to cross
// several progress chunks.
func progressTrace(t *testing.T) *trace.Trace {
	t.Helper()
	_, tr := compiled(t, "CONDUCT")
	return tr
}

type progressRecord struct {
	done, total int
	vt          int64
}

func TestFastPathProgressCallbacks(t *testing.T) {
	tr := progressTrace(t).RefsOnly()
	var calls []progressRecord
	o := &obs.Observer{Progress: func(done, total int, vt int64) {
		calls = append(calls, progressRecord{done, total, vt})
	}}
	res := RunObserved(tr, policy.NewLRU(32), o)

	plain := Run(tr, policy.NewLRU(32))
	if res != plain {
		t.Errorf("progress-observed result differs from plain run:\n got %+v\nwant %+v", res, plain)
	}
	if len(calls) < 2 {
		t.Fatalf("got %d progress calls over %d events, want several", len(calls), tr.Meta().Events)
	}
	for i, c := range calls {
		if c.total != tr.Meta().Events {
			t.Fatalf("call %d: total = %d, want %d", i, c.total, tr.Meta().Events)
		}
		if i > 0 {
			prev := calls[i-1]
			if c.done < prev.done || c.vt < prev.vt {
				t.Fatalf("progress went backwards: %+v after %+v", c, prev)
			}
		}
	}
	last := calls[len(calls)-1]
	if last.done != tr.Meta().Events {
		t.Errorf("final done = %d, want %d (the full trace)", last.done, tr.Meta().Events)
	}
	if last.vt != res.VirtualTime {
		t.Errorf("final vt = %d, want result virtual time %d", last.vt, res.VirtualTime)
	}
}

func TestInstrumentedProgressCallbacks(t *testing.T) {
	tr := progressTrace(t).RefsOnly()
	var calls []progressRecord
	o := &obs.Observer{
		Tracer: &obs.Collector{},
		Progress: func(done, total int, vt int64) {
			calls = append(calls, progressRecord{done, total, vt})
		},
	}
	res := RunObserved(tr, policy.NewLRU(32), o)
	plain := Run(tr, policy.NewLRU(32))
	if res != plain {
		t.Errorf("instrumented result drifted: got %+v want %+v", res, plain)
	}
	if len(calls) < 2 {
		t.Fatalf("got %d progress calls, want several", len(calls))
	}
	last := calls[len(calls)-1]
	if last.done != tr.Refs || last.total != tr.Refs {
		t.Errorf("final call = %d/%d, want %d/%d", last.done, last.total, tr.Refs, tr.Refs)
	}
}

// closedGate is a Gate that never opens: the telemetry server's no-client
// stance. A full observer behind it must still take the fast path (and
// still deliver progress).
type closedGate struct{}

func (closedGate) Open() bool { return false }

func TestClosedGateTakesFastPath(t *testing.T) {
	tr := progressTrace(t).RefsOnly()
	col := &obs.Collector{}
	calls := 0
	o := &obs.Observer{
		Tracer:   col,
		Metrics:  obs.NewRegistry(),
		Gate:     closedGate{},
		Progress: func(done, total int, vt int64) { calls++ },
	}
	res := RunObserved(tr, policy.NewLRU(32), o)
	if len(col.Events) != 0 {
		t.Errorf("closed gate leaked %d events into the tracer", len(col.Events))
	}
	if calls == 0 {
		t.Error("progress must keep flowing behind a closed gate")
	}
	if plain := Run(tr, policy.NewLRU(32)); res != plain {
		t.Errorf("gated result drifted: got %+v want %+v", res, plain)
	}
}

func TestProgressOnEmptyAndTinyTraces(t *testing.T) {
	// A trace smaller than one chunk must still get its terminal call.
	_, full := compiled(t, "MAIN")
	tr := full.RefsOnly()
	var last progressRecord
	calls := 0
	o := &obs.Observer{Progress: func(done, total int, vt int64) {
		calls++
		last = progressRecord{done, total, vt}
	}}
	RunObserved(tr, policy.NewLRU(8), o)
	if calls == 0 || last.done != last.total {
		t.Errorf("tiny trace: calls=%d last=%+v, want a terminal done==total call", calls, last)
	}
}
