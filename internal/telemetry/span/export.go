package span

import (
	"errors"
	"io"

	"repro/internal/telemetry"
)

// jsonlSpan is the JSONL rendering of one completed span, following
// the event tracer's conventions: a type tag first, then the payload,
// durations in microseconds.
type jsonlSpan struct {
	Type    string            `json:"type"`
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUS float64           `json:"start_us"`
	DurUS   float64           `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// WriteJSONL writes the completed spans as JSON Lines: the manifest
// first (when non-nil), then one span per line in start order.
func (t *Tracer) WriteJSONL(w io.Writer, m *telemetry.Manifest) error {
	if t == nil {
		return errors.New("span: nil tracer")
	}
	records := t.Records()
	lines := make([]jsonlSpan, len(records))
	for i, r := range records {
		lines[i] = jsonlSpan{
			Type:    "span",
			ID:      r.ID,
			Parent:  r.Parent,
			Name:    r.Name,
			StartUS: float64(r.StartNS) / 1e3,
			DurUS:   float64(r.DurNS) / 1e3,
		}
		if len(r.Attrs) > 0 {
			lines[i].Attrs = make(map[string]string, len(r.Attrs))
			for _, a := range r.Attrs {
				lines[i].Attrs[a.Key] = a.Value
			}
		}
	}
	return telemetry.WriteJSONL(w, m, lines)
}

// WriteChromeTrace writes the completed spans in Chrome trace_event
// format as ph="X" complete events, timestamps and durations in
// microseconds. Each root span's subtree renders on its own track
// (tid = root span ID), so concurrent workload sweeps appear as
// parallel lanes. The manifest, when non-nil, is embedded as trace
// metadata.
func (t *Tracer) WriteChromeTrace(w io.Writer, m *telemetry.Manifest) error {
	if t == nil {
		return errors.New("span: nil tracer")
	}
	records := t.Records()

	// Resolve each span's root to assign tracks. Parents sort before
	// children only when they started earlier, so resolve via the id
	// map rather than relying on order.
	parent := make(map[uint64]uint64, len(records))
	for _, r := range records {
		parent[r.ID] = r.Parent
	}
	rootOf := func(id uint64) uint64 {
		for {
			p, ok := parent[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
	}

	out := make([]telemetry.TraceEvent, 0, len(records)+8)
	out = append(out, telemetry.NameEvent("process_name", 0, "sweep"))
	named := make(map[uint64]bool)
	for _, r := range records {
		root := rootOf(r.ID)
		tid := int(root)
		if !named[root] {
			named[root] = true
			out = append(out, telemetry.NameEvent("thread_name", tid, laneName(records, root)))
		}
		args := make(map[string]any, len(r.Attrs))
		for _, a := range r.Attrs {
			args[a.Key] = a.Value
		}
		out = append(out, telemetry.TraceEvent{
			Name:  r.Name,
			Cat:   "span",
			Phase: "X",
			TS:    float64(r.StartNS) / 1e3,
			Dur:   float64(r.DurNS) / 1e3,
			PID:   telemetry.TracePID,
			TID:   tid,
			Args:  args,
		})
	}
	return telemetry.WriteChromeTrace(w, out, m)
}

// laneName labels a track after its root span, preferring the workload
// attribute when present ("workload:si95-gcc" beats "workload 3").
func laneName(records []Record, root uint64) string {
	for _, r := range records {
		if r.ID != root {
			continue
		}
		if wl, ok := r.Attr("workload"); ok {
			return r.Name + ":" + wl
		}
		return r.Name
	}
	return "spans"
}
