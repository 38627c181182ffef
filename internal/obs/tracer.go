package obs

import "strconv"

// Event kinds emitted by the simulator. The stream of one run is framed
// by a KindRun event (policy name, trace length) and a KindEnd event
// (summary aggregates); in between, fault/res events carry enough state
// to reconstruct the run's performance indexes exactly (see Replay).
const (
	KindRun     = "run"     // run start: Label=policy, Refs=trace length
	KindFault   = "fault"   // page fault: T, I, Page, Res
	KindRes     = "res"     // space-time charge changed: T, I, Res
	KindAlloc   = "alloc"   // ALLOCATE directive executed: T, Label
	KindPhase   = "phase"   // CD allocation target changed: T, Prev, Alloc
	KindLock    = "lock"    // LOCK executed: T, PJ, Site, Pages
	KindUnlock  = "unlock"  // UNLOCK executed: T, Pages
	KindLockRel = "lockrel" // OS force-released a locked page: T, Page
	KindSwap    = "swap"    // swap signal / swap-out: T, Job, Why
	KindDegrade = "degrade" // CD directive-contract violation: T, Why (policy falls back to WS)
	KindJobDone = "jobdone" // multiprogramming job finished: T, Job, Refs, PF
	KindEnd     = "end"     // run end: T, Refs, PF, Mem
)

// Event is one structured trace record. T is the virtual time at which
// the event completed (global ticks in multiprogramming runs); I is the
// number of page references executed so far. Which of the remaining
// fields are meaningful depends on Kind — see the Kind constants.
type Event struct {
	T      int64   `json:"t"`
	Kind   string  `json:"ev"`
	I      int     `json:"i,omitempty"`
	Page   int     `json:"page"`
	Res    int     `json:"res,omitempty"`
	Prev   int     `json:"prev,omitempty"`
	Alloc  int     `json:"alloc,omitempty"`
	PJ     int     `json:"pj,omitempty"`
	Site   int     `json:"site,omitempty"`
	Pages  int     `json:"pages,omitempty"`
	Refs   int     `json:"refs,omitempty"`
	Faults int     `json:"pf,omitempty"`
	Mem    float64 `json:"mem,omitempty"`
	ST     float64 `json:"st,omitempty"`
	Label  string  `json:"label,omitempty"`
	Job    string  `json:"job,omitempty"`
	Why    string  `json:"why,omitempty"`
}

// Tracer receives structured events. Implementations must not retain the
// event beyond the call unless they copy it (Event is a value type, so
// plain assignment copies).
type Tracer interface {
	Emit(e Event)
}

// Collector is an in-memory Tracer, used by tests and the timeline
// renderer.
type Collector struct {
	Events []Event
}

// Emit implements Tracer.
func (c *Collector) Emit(e Event) { c.Events = append(c.Events, e) }

// MultiTracer fans an event out to several tracers.
type MultiTracer []Tracer

// Emit implements Tracer.
func (m MultiTracer) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// AppendJSON renders the event as a single JSON object. Fields are
// emitted kind-aware: page is always present for fault/lockrel events
// (page 0 is a valid page number), other fields only when set — so the
// stream stays compact over multi-million-reference runs.
func (e Event) AppendJSON(b []byte) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, e.T, 10)
	b = append(b, `,"ev":`...)
	b = strconv.AppendQuote(b, e.Kind)
	if e.I != 0 {
		b = append(b, `,"i":`...)
		b = strconv.AppendInt(b, int64(e.I), 10)
	}
	if e.Page != 0 || e.Kind == KindFault || e.Kind == KindLockRel {
		b = append(b, `,"page":`...)
		b = strconv.AppendInt(b, int64(e.Page), 10)
	}
	if e.Res != 0 {
		b = append(b, `,"res":`...)
		b = strconv.AppendInt(b, int64(e.Res), 10)
	}
	if e.Prev != 0 {
		b = append(b, `,"prev":`...)
		b = strconv.AppendInt(b, int64(e.Prev), 10)
	}
	if e.Alloc != 0 {
		b = append(b, `,"alloc":`...)
		b = strconv.AppendInt(b, int64(e.Alloc), 10)
	}
	if e.PJ != 0 {
		b = append(b, `,"pj":`...)
		b = strconv.AppendInt(b, int64(e.PJ), 10)
	}
	if e.Site != 0 {
		b = append(b, `,"site":`...)
		b = strconv.AppendInt(b, int64(e.Site), 10)
	}
	if e.Pages != 0 {
		b = append(b, `,"pages":`...)
		b = strconv.AppendInt(b, int64(e.Pages), 10)
	}
	if e.Refs != 0 {
		b = append(b, `,"refs":`...)
		b = strconv.AppendInt(b, int64(e.Refs), 10)
	}
	if e.Faults != 0 {
		b = append(b, `,"pf":`...)
		b = strconv.AppendInt(b, int64(e.Faults), 10)
	}
	if e.Mem != 0 {
		b = append(b, `,"mem":`...)
		b = appendFloat(b, e.Mem)
	}
	if e.ST != 0 {
		b = append(b, `,"st":`...)
		b = appendFloat(b, e.ST)
	}
	if e.Label != "" {
		b = append(b, `,"label":`...)
		b = strconv.AppendQuote(b, e.Label)
	}
	if e.Job != "" {
		b = append(b, `,"job":`...)
		b = strconv.AppendQuote(b, e.Job)
	}
	if e.Why != "" {
		b = append(b, `,"why":`...)
		b = strconv.AppendQuote(b, e.Why)
	}
	return append(b, '}')
}

// Replay aggregates a single-run event stream back into the run's summary
// figures: the number of references executed, the fault count, and the
// space-time memory sum (Σ charge sampled after every reference) —
// exactly the quantities vmsim.Run accumulates, so a JSONL file can be
// audited against the printed Result. The stream must contain the run's
// KindEnd event (for the reference count) and the KindRes charge-change
// events the instrumented simulator emits.
func Replay(events []Event) (refs, faults int, memSum float64) {
	lastI := 0 // reference index of the latest charge change
	cur := 0   // charge in effect since lastI
	for _, e := range events {
		switch e.Kind {
		case KindFault:
			faults++
		case KindRes:
			// References lastI+1 .. e.I-1 were charged cur pages; the
			// reference at e.I established the new charge.
			memSum += float64(cur) * float64(e.I-1-lastI)
			memSum += float64(e.Res)
			lastI = e.I
			cur = e.Res
		case KindEnd:
			refs = e.Refs
		}
	}
	memSum += float64(cur) * float64(refs-lastI)
	return refs, faults, memSum
}
