package telemetry

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// EventKind classifies a traced pipeline event.
type EventKind uint8

// The event kinds the simulator emits.
const (
	// KindFetch: an instruction entered the pipeline. Arg is the
	// sequence number, Detail the instruction class.
	KindFetch EventKind = iota
	// KindIssue: an instruction began execution. Arg is the sequence
	// number, Detail the instruction class.
	KindIssue
	// KindRetire: an instruction completed architecturally. Arg is
	// the sequence number, Detail the instruction class.
	KindRetire
	// KindStall: the issue stage made no progress this cycle. Detail
	// is the stall cause.
	KindStall
	// KindGate: per-cycle clock-gate activity. Arg is a bitmask with
	// bit u set when unit u's latches switched this cycle.
	KindGate

	numEventKinds = iota
)

// NumEventKinds is the number of event kinds.
const NumEventKinds = int(numEventKinds)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case KindFetch:
		return "fetch"
	case KindIssue:
		return "issue"
	case KindRetire:
		return "retire"
	case KindStall:
		return "stall"
	case KindGate:
		return "gate"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one traced occurrence. The meaning of Arg and Detail
// depends on Kind (see the kind constants).
type Event struct {
	Cycle  uint64
	Arg    uint64
	PC     uint64
	Kind   EventKind
	Detail uint8
}

// Tracer is a fixed-capacity ring buffer of Events. When full, the
// oldest events are overwritten (and counted as dropped), so the
// tracer always holds the most recent window of activity at bounded
// memory. A nil *Tracer is the disabled state: CycleEnabled reports
// false and no event is ever recorded, so instrumented code pays only
// a nil check.
//
// Tracer is not safe for concurrent use; attach one tracer to one
// simulation run.
type Tracer struct {
	events  []Event
	head    int // index of the oldest event
	n       int // live events
	sample  uint64
	dropped uint64

	unitNames  []string
	causeNames []string
	classNames []string
}

// DefaultTraceEvents is the default ring capacity — enough for tens
// of thousands of cycles of full activity while staying a few MB.
const DefaultTraceEvents = 1 << 18

// NewTracer returns a tracer holding up to capacity events
// (DefaultTraceEvents if capacity ≤ 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{events: make([]Event, 0, capacity)}
}

// SetSampling records only cycles where cycle%every == 0 (every ≤ 1
// records all cycles). Sampling thins the trace uniformly in time so
// long runs stay within the ring without losing the run's shape.
func (t *Tracer) SetSampling(every uint64) { t.sample = every }

// SetSchema installs the name tables used to render unit bitmasks,
// stall causes and instruction classes in exported traces.
func (t *Tracer) SetSchema(units, causes, classes []string) {
	t.unitNames, t.causeNames, t.classNames = units, causes, classes
}

// CycleEnabled reports whether events for the given cycle should be
// recorded. Safe on a nil tracer (reports false): the hot loop asks
// once per cycle and skips all emission work when tracing is off.
func (t *Tracer) CycleEnabled(cycle uint64) bool {
	return t != nil && (t.sample <= 1 || cycle%t.sample == 0)
}

// Emit records one event, evicting the oldest when full.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if t.n < cap(t.events) {
		t.events = t.events[:t.n+1]
		t.events[(t.head+t.n)%cap(t.events)] = ev
		t.n++
		return
	}
	t.events[t.head] = ev
	t.head = (t.head + 1) % cap(t.events)
	t.dropped++
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events were evicted to make room.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the buffered events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.events[(t.head+i)%cap(t.events)]
	}
	return out
}

// name renders index i from table, falling back to a numbered label.
func name(table []string, prefix string, i int) string {
	if i >= 0 && i < len(table) {
		return table[i]
	}
	return fmt.Sprintf("%s%d", prefix, i)
}

// maskNames expands a unit bitmask into unit names.
func (t *Tracer) maskNames(mask uint64) []string {
	out := make([]string, 0, bits.OnesCount64(mask))
	for mask != 0 {
		u := bits.TrailingZeros64(mask)
		out = append(out, name(t.unitNames, "unit", u))
		mask &^= 1 << u
	}
	return out
}

// jsonlEvent is the JSONL rendering of one event.
type jsonlEvent struct {
	Type  string   `json:"type"`
	Cycle uint64   `json:"cycle"`
	Seq   *uint64  `json:"seq,omitempty"`
	PC    string   `json:"pc,omitempty"`
	Class string   `json:"class,omitempty"`
	Cause string   `json:"cause,omitempty"`
	Units []string `json:"units,omitempty"`
}

// WriteJSONL writes the trace as JSON Lines: the manifest first (when
// non-nil), then one event per line, oldest-first.
func (t *Tracer) WriteJSONL(w io.Writer, m *Manifest) error {
	if t == nil {
		return errors.New("telemetry: nil tracer")
	}
	events := t.Events()
	lines := make([]jsonlEvent, len(events))
	for i, ev := range events {
		je := jsonlEvent{Type: ev.Kind.String(), Cycle: ev.Cycle}
		switch ev.Kind {
		case KindFetch, KindIssue, KindRetire:
			seq := ev.Arg
			je.Seq = &seq
			je.PC = fmt.Sprintf("%#x", ev.PC)
			je.Class = name(t.classNames, "class", int(ev.Detail))
		case KindStall:
			je.Cause = name(t.causeNames, "cause", int(ev.Detail))
		case KindGate:
			je.Units = t.maskNames(ev.Arg)
		}
		lines[i] = je
	}
	return WriteJSONL(w, m, lines)
}
