package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The one export path for both tracers (the cycle tracer here, the
// span tracer in internal/telemetry/span): each builds TraceEvents or
// JSONL lines and hands them to WriteChromeTrace or WriteJSONL, which
// own the envelope — the traceEvents/metadata object, and the
// manifest line that leads a JSONL stream.

// TracePID is the single process ID both tracers emit under.
const TracePID = 1

// TraceEvent is one Trace Event Format entry, loadable by
// chrome://tracing and https://ui.perfetto.dev. Fields follow the spec
// (ph = phase, ts = timestamp µs, dur = duration µs, s = instant-event
// scope).
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// NameEvent is the metadata event naming the trace's process (tid 0,
// name "process_name") or one of its tracks (name "thread_name").
func NameEvent(kind string, tid int, label string) TraceEvent {
	return TraceEvent{Name: kind, Phase: "M", PID: TracePID, TID: tid,
		Args: map[string]any{"name": label}}
}

// WriteChromeTrace writes events as one Trace Event Format object. The
// manifest, when non-nil, is embedded as the trace's metadata.
func WriteChromeTrace(w io.Writer, events []TraceEvent, m *Manifest) error {
	trace := struct {
		TraceEvents []TraceEvent   `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata,omitempty"`
	}{TraceEvents: events}
	if m != nil {
		meta, err := json.Marshal(m)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(meta, &trace.Metadata); err != nil {
			return err
		}
	}
	return json.NewEncoder(w).Encode(trace)
}

// WriteJSONL writes a JSON Lines stream: the manifest first (when
// non-nil, tagged "type":"manifest"), then one line per element.
func WriteJSONL[T any](w io.Writer, m *Manifest, lines []T) error {
	enc := json.NewEncoder(w)
	if m != nil {
		if err := enc.Encode(m.tagged()); err != nil {
			return err
		}
	}
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return nil
}

// Cycle tracer export: cycles map to microseconds of trace time
// (1 cycle = 1 µs). Three tracks are emitted under one process:
// instruction instants (fetch/issue/retire), stall spans (consecutive
// same-cause stall cycles merged into one duration event), and
// per-unit clock-gate counters.
const (
	chromeTIDPipe   = 1
	chromeTIDStalls = 2
)

// WriteChromeTrace writes the buffered events in Chrome trace_event
// format. The manifest, when non-nil, is embedded as trace metadata.
func (t *Tracer) WriteChromeTrace(w io.Writer, m *Manifest) error {
	if t == nil {
		return errors.New("telemetry: nil tracer")
	}
	events := t.Events()
	out := make([]TraceEvent, 0, len(events)+16)
	out = append(out,
		NameEvent("process_name", 0, "pipesim"),
		NameEvent("thread_name", chromeTIDPipe, "instructions"),
		NameEvent("thread_name", chromeTIDStalls, "stalls"),
	)

	// Stall-span state: a run of consecutive stall cycles with the
	// same cause flushes as one X (complete) event.
	var stallStart, stallLen uint64
	var stallCause uint8
	inStall := false
	flushStall := func() {
		if !inStall {
			return
		}
		out = append(out, TraceEvent{
			Name:  "stall:" + name(t.causeNames, "cause", int(stallCause)),
			Cat:   "stall",
			Phase: "X",
			TS:    float64(stallStart),
			Dur:   float64(stallLen),
			PID:   TracePID,
			TID:   chromeTIDStalls,
		})
		inStall = false
	}

	for _, ev := range events {
		switch ev.Kind {
		case KindFetch, KindIssue, KindRetire:
			out = append(out, TraceEvent{
				Name:  ev.Kind.String(),
				Cat:   "pipe",
				Phase: "i",
				Scope: "t",
				TS:    float64(ev.Cycle),
				PID:   TracePID,
				TID:   chromeTIDPipe,
				Args: map[string]any{
					"seq":   ev.Arg,
					"pc":    fmt.Sprintf("%#x", ev.PC),
					"class": name(t.classNames, "class", int(ev.Detail)),
				},
			})
		case KindStall:
			if inStall && ev.Detail == stallCause && ev.Cycle == stallStart+stallLen {
				stallLen++
				continue
			}
			flushStall()
			stallStart, stallLen, stallCause, inStall = ev.Cycle, 1, ev.Detail, true
		case KindGate:
			// One multi-series counter sample per recorded cycle:
			// Chrome stacks the per-unit 0/1 series into an activity
			// area chart — the clock-gating duty cycle over time.
			args := make(map[string]any, len(t.unitNames))
			for u, un := range t.unitNames {
				v := 0
				if ev.Arg&(1<<u) != 0 {
					v = 1
				}
				args[un] = v
			}
			out = append(out, TraceEvent{
				Name:  "clock-gate",
				Cat:   "power",
				Phase: "C",
				TS:    float64(ev.Cycle),
				PID:   TracePID,
				Args:  args,
			})
		}
	}
	flushStall()
	return WriteChromeTrace(w, out, m)
}
