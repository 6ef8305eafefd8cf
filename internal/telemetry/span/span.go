// Package span is the study-level counterpart of the cycle-level event
// tracer (internal/telemetry): a low-overhead hierarchical span tracer
// that records where a sweep's wall time goes. The tree mirrors the
// orchestration — study → workload → design point → phase (decode,
// warmup, simulate, power, cache, fit) — with monotonic-clock
// durations and per-span attributes, exportable as JSONL and Chrome
// trace_event format through the same writer as the event tracer.
//
// Span names come from the shared vocabulary promexp.SpanNames; each
// completed span additionally feeds a "span.<name>_us" histogram in an
// attached telemetry registry, so phase quantiles (p50/p95/p99) are
// scrapeable at /metrics.
//
// A nil *Tracer is the disabled state: Start returns a nil *Span,
// every Span method is a no-op on nil, so instrumented code pays only
// nil checks when tracing is off.
package span

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer-valued attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: strconv.Itoa(value)} }

// Record is one completed span.
type Record struct {
	ID     uint64 // 1-based, unique within the tracer
	Parent uint64 // 0 for a root span
	Name   string
	Attrs  []Attr
	// StartNS is the span's start on the tracer's monotonic clock,
	// nanoseconds since the tracer was created; DurNS its duration.
	StartNS int64
	DurNS   int64
}

// DefaultMaxSpans bounds a tracer's buffered records — far above any
// real sweep (a full 55-workload × 24-depth catalog is ~9k spans) while
// keeping a long-running server or a runaway instrumentation loop at
// bounded memory.
const DefaultMaxSpans = 1 << 17

// NoRecords is the NewTracer capacity of a tracer that buffers no
// records: its spans only feed the "span.<name>_us" histograms, for a
// process that exports those but never reads the span tree back.
const NoRecords = -1

// Tracer collects completed spans in a fixed-capacity ring: when full,
// the oldest record is evicted (and counted as dropped), so the tracer
// always holds the most recent spans — a just-finished job's subtree
// included — at bounded memory. All methods are safe for concurrent
// use; a nil *Tracer is the disabled state.
type Tracer struct {
	epoch time.Time
	reg   *telemetry.Registry
	max   int // ring capacity; 0 buffers nothing

	mu      sync.Mutex
	records []Record // ring of up to max records; oldest at head once full
	head    int
	// children indexes the buffered records by parent ID — ring slots
	// in insertion order — so Rollup walks the subtree, not the whole
	// buffer. The ring evicts oldest-first, so an evicted record is
	// always the first slot of its parent's list.
	children map[uint64][]int
	nextID   uint64
	dropped  uint64
}

// NewTracer returns a tracer buffering up to capacity completed spans
// (DefaultMaxSpans if capacity is 0, none if it is negative: see
// NoRecords). When reg is non-nil, every completed span observes its
// duration into the "span.<name>_us" histogram there.
func NewTracer(reg *telemetry.Registry, capacity int) *Tracer {
	switch {
	case capacity == 0:
		capacity = DefaultMaxSpans
	case capacity < 0:
		capacity = 0
	}
	//lint:ignore detrange monotonic epoch for span timestamps; never feeds a simulated figure
	return &Tracer{epoch: time.Now(), reg: reg, max: capacity, children: map[uint64][]int{}}
}

// Span is one in-progress operation. A nil *Span (disabled tracer, or
// a child of a nil span) ignores every call.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	attrs  []Attr
	start  time.Time
}

// Start opens a root span. Safe on a nil tracer (returns nil).
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	return t.open(name, 0, attrs)
}

// Child opens a sub-span of s. Safe on a nil span (returns nil).
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.open(name, s.id, attrs)
}

func (t *Tracer) open(name string, parent uint64, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	var copied []Attr
	if len(attrs) > 0 {
		copied = append([]Attr(nil), attrs...)
	}
	//lint:ignore detrange monotonic span clock; never feeds a simulated figure
	return &Span{tr: t, id: id, parent: parent, name: name, attrs: copied, start: time.Now()}
}

// ID returns the span's tracer-unique identifier (0 on a nil span) —
// the handle subtree queries (Children, Rollup) key on.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr annotates the span. Safe on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End completes the span, recording its monotonic-clock duration. Safe
// on a nil span; ending a span twice records it twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	t := s.tr
	if t.max > 0 {
		t.add(Record{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			Attrs:   s.attrs,
			StartNS: s.start.Sub(t.epoch).Nanoseconds(),
			DurNS:   dur.Nanoseconds(),
		})
	}
	if t.reg != nil {
		t.reg.Histogram("span." + s.name + "_us").Observe(uint64(dur.Microseconds()))
	}
}

// add buffers one completed span, evicting the oldest when full.
func (t *Tracer) add(rec Record) {
	t.mu.Lock()
	slot := len(t.records)
	if slot < t.max {
		t.records = append(t.records, rec)
	} else {
		slot = t.head
		parent := t.records[slot].Parent
		if kids := t.children[parent]; len(kids) > 1 {
			t.children[parent] = kids[1:]
		} else {
			delete(t.children, parent)
		}
		t.records[slot] = rec
		t.head = (t.head + 1) % t.max
		t.dropped++
	}
	t.children[rec.Parent] = append(t.children[rec.Parent], slot)
	t.mu.Unlock()
}

// Len returns the number of completed spans buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.records)
}

// Dropped returns how many completed spans were evicted to make room.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Records returns the completed spans sorted by start time (ties by
// ID, so parents order before their children started the same
// nanosecond). Safe on a nil tracer (returns nil).
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Record(nil), t.records...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ByName returns the completed spans with the given name, in start
// order.
func (t *Tracer) ByName(name string) []Record {
	var out []Record
	for _, r := range t.Records() {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// Children returns the completed direct children of the span with the
// given ID, in start order.
func (t *Tracer) Children(id uint64) []Record {
	var out []Record
	for _, r := range t.Records() {
		if r.Parent == id {
			out = append(out, r)
		}
	}
	return out
}

// RollupEntry aggregates the completed spans of one name within a
// subtree.
type RollupEntry struct {
	Count   int
	TotalNS int64
}

// Rollup aggregates the completed descendants of the span with ID root
// (the root itself excluded) by name: per-phase counts and total
// durations for one subtree — how the ledger turns a job's span tree
// into wide-event phase columns. It walks the parent index, so its
// cost is the subtree's size, not the buffer's. Only buffered spans
// count: once the ring is full the oldest records are evicted, so a
// subtree that just completed is whole unless it alone outgrows the
// buffer. Safe on a nil tracer (returns nil).
func (t *Tracer) Rollup(root uint64) map[string]RollupEntry {
	if t == nil {
		return nil
	}
	out := make(map[string]RollupEntry)
	stack := []uint64{root}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, slot := range t.children[id] {
			r := &t.records[slot]
			e := out[r.Name]
			e.Count++
			e.TotalNS += r.DurNS
			out[r.Name] = e
			stack = append(stack, r.ID)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Attr returns the value of the record's attribute with the given key.
func (r Record) Attr(key string) (string, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Lint checks every buffered span name against the shared vocabulary
// check, returning one error per offending span. The check is supplied
// by the caller (promexp.ValidSpanName in production) so this package
// stays free of a promexp dependency.
func (t *Tracer) Lint(valid func(string) error) []error {
	var errs []error
	for _, r := range t.Records() {
		if err := valid(r.Name); err != nil {
			errs = append(errs, fmt.Errorf("span %d: %w", r.ID, err))
		}
	}
	return errs
}
