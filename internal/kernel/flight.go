package kernel

import (
	"encoding/json"
	"fmt"
	"io"
)

// The flight recorder is the kernel's post-incident capture: a bounded
// per-shard ring of recent scheduler events (admissions, pressure waves,
// suspensions, degrades, sheds, kills, violations) that is snapshotted
// into an Incident whenever a checked invariant trips, a tenant degrades
// or chaos kills a tenant. Everything is stamped in virtual time and
// captured by the shard's own goroutine, so incident dumps are byte-
// identical across runs and worker counts for a fixed seed.

// FlightEvent is one recorded kernel event.
type FlightEvent struct {
	// T is the shard's virtual clock at the event.
	T int64 `json:"t"`
	// Kind is the event type: admit, suspend, resume, shed, kill,
	// finish, degrade, wave, violation.
	Kind string `json:"kind"`
	// Tenant names the tenant involved, when one is.
	Tenant string `json:"tenant,omitempty"`
	// Detail carries the event's specifics (suspend reason, wave
	// accounting, violation text).
	Detail string `json:"detail,omitempty"`
}

// flightRing is a fixed-size overwrite-oldest event buffer.
type flightRing struct {
	buf []FlightEvent
	n   int64 // total events ever recorded
}

func newFlightRing() *flightRing {
	return &flightRing{buf: make([]FlightEvent, flightEvents)}
}

// record appends an event, overwriting the oldest when full.
func (r *flightRing) record(e FlightEvent) {
	r.buf[r.n%int64(len(r.buf))] = e
	r.n++
}

// capture copies the retained events oldest-first and reports how many
// were overwritten before this capture.
func (r *flightRing) capture() (events []FlightEvent, dropped int64) {
	size := int64(len(r.buf))
	kept := r.n
	if kept > size {
		kept = size
	}
	events = make([]FlightEvent, 0, kept)
	for i := r.n - kept; i < r.n; i++ {
		events = append(events, r.buf[i%size])
	}
	return events, r.n - kept
}

// Incident is one flight-recorder dump: the trigger, its context and the
// ring contents at capture time.
type Incident struct {
	// Shard and Seq identify the incident: Seq counts incidents within
	// the shard, so (Shard, Seq) is unique and stable across runs.
	Shard int `json:"shard"`
	Seq   int `json:"seq"`
	// Trigger is what fired the capture: violation, degrade or kill.
	Trigger string `json:"trigger"`
	// Clock is the shard's virtual clock at capture.
	Clock int64 `json:"clock"`
	// Tenant and Detail describe the triggering event.
	Tenant string `json:"tenant,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Dropped counts ring events overwritten before capture — what the
	// bounded recorder forgot.
	Dropped int64 `json:"dropped"`
	// Events is the ring at capture, oldest first.
	Events []FlightEvent `json:"events"`
}

// Filename returns the incident's deterministic dump name.
func (in *Incident) Filename() string {
	return fmt.Sprintf("incident-s%02d-%03d-%s.jsonl", in.Shard, in.Seq, in.Trigger)
}

// WriteJSONL writes the incident report: a header line describing the
// trigger, then one line per retained event. Every field is virtual-time
// or seed-derived, so the bytes are reproducible.
func (in *Incident) WriteJSONL(w io.Writer) error {
	hdr := struct {
		Shard   int    `json:"shard"`
		Seq     int    `json:"seq"`
		Trigger string `json:"trigger"`
		Clock   int64  `json:"clock"`
		Tenant  string `json:"tenant,omitempty"`
		Detail  string `json:"detail,omitempty"`
		Dropped int64  `json:"dropped"`
		Events  int    `json:"events"`
	}{in.Shard, in.Seq, in.Trigger, in.Clock, in.Tenant, in.Detail, in.Dropped, len(in.Events)}
	b, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	for _, e := range in.Events {
		eb, err := json.Marshal(e)
		if err != nil {
			return err
		}
		b = append(b, eb...)
		b = append(b, '\n')
	}
	_, err = w.Write(b)
	return err
}

// flight records a ring event; a no-op when the recorder is off.
func (sh *shard) flight(kind, tenant, detail string) {
	if sh.fr == nil {
		return
	}
	sh.fr.record(FlightEvent{T: sh.clock, Kind: kind, Tenant: tenant, Detail: detail})
}

// incident snapshots the ring. Captures per shard are bounded by
// maxIncidents; overflow is counted, not stored, so a chaos soak cannot
// balloon the result.
func (sh *shard) incident(trigger, tenant, detail string) {
	if sh.fr == nil {
		return
	}
	if len(sh.res.Incidents) >= maxIncidents {
		sh.res.IncidentsDropped++
		return
	}
	events, dropped := sh.fr.capture()
	sh.res.Incidents = append(sh.res.Incidents, Incident{
		Shard:   sh.idx,
		Seq:     len(sh.res.Incidents) + 1,
		Trigger: trigger,
		Clock:   sh.clock,
		Tenant:  tenant,
		Detail:  detail,
		Dropped: dropped,
		Events:  events,
	})
}
