package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// TraceEvent is one recorded event in a JSON trace.
type TraceEvent struct {
	Kind  EventKind      `json:"kind"`
	AtUS  int64          `json:"at_us"` // microseconds since trace start
	Attrs map[string]any `json:"attrs,omitempty"`
}

// TraceSpan is one recorded span in a JSON trace.
type TraceSpan struct {
	Name       string         `json:"name"`
	StartUS    int64          `json:"start_us"`    // microseconds since trace start
	DurationUS int64          `json:"duration_us"` // -1 while unfinished
	Attrs      map[string]any `json:"attrs,omitempty"`
	Events     []TraceEvent   `json:"events,omitempty"`
	Children   []*TraceSpan   `json:"children,omitempty"`
}

// Trace is the serialized form of one recorded design run: the span tree,
// loose (span-less) events, and the final metric values.
type Trace struct {
	// StartedAt is the wall-clock time the recorder was created.
	StartedAt time.Time `json:"started_at"`
	// Spans are the top-level spans in start order.
	Spans []*TraceSpan `json:"spans"`
	// Events are events emitted outside any span.
	Events []TraceEvent `json:"events,omitempty"`
	// Counters and Gauges are the registry's final values.
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// FindSpan returns the first span with the given name in a pre-order walk
// of the trace, or nil.
func (t *Trace) FindSpan(name string) *TraceSpan {
	var walk func(spans []*TraceSpan) *TraceSpan
	walk = func(spans []*TraceSpan) *TraceSpan {
		for _, s := range spans {
			if s.Name == name {
				return s
			}
			if found := walk(s.Children); found != nil {
				return found
			}
		}
		return nil
	}
	return walk(t.Spans)
}

// EventsOfKind returns every event of the kind anywhere in the trace
// (loose events and span events, pre-order).
func (t *Trace) EventsOfKind(kind EventKind) []TraceEvent {
	var out []TraceEvent
	for _, e := range t.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	var walk func(spans []*TraceSpan)
	walk = func(spans []*TraceSpan) {
		for _, s := range spans {
			for _, e := range s.Events {
				if e.Kind == kind {
					out = append(out, e)
				}
			}
			walk(s.Children)
		}
	}
	walk(t.Spans)
	return out
}

// Recorder is an Observer that records a run's spans and events in memory
// and exports them as a JSON trace. It is safe for concurrent use: the
// MVPP generator starts sibling spans from multiple goroutines.
//
// The recording is one append-only list of Records in start order: a span
// is a KindSpan record whose Ctx comes from NewTraceContext (top level) or
// its parent's NewChild, an event a KindEvent record whose Ctx.Parent is
// its span's ID (0 when loose). Annotate and End update the span's record
// under the recorder's lock; attribute maps are built only by Trace.
type Recorder struct {
	mu    sync.Mutex
	start time.Time
	reg   *Registry
	recs  []*Record
}

// NewRecorder builds a recording observer. reg may be nil, in which case
// the recorder owns a fresh registry.
func NewRecorder(reg *Registry) *Recorder {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Recorder{start: time.Now(), reg: reg}
}

// now reads the clock as Unix ns, advanced from the recorder's start by the
// monotonic clock.
func (r *Recorder) now() int64 { return r.start.UnixNano() + int64(time.Since(r.start)) }

// sinceUS converts a record's Unix ns into microseconds since the start.
func (r *Recorder) sinceUS(ns int64) int64 { return (ns - r.start.UnixNano()) / 1000 }

func (r *Recorder) add(rec *Record) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

func (r *Recorder) startSpan(ctx SpanContext, name string, attrs []Attr) Span {
	rec := &Record{Kind: KindSpan, Name: name, Ctx: ctx, Start: r.now(), Dur: -1, Attrs: attrs}
	r.add(rec)
	return &recordedSpan{owner: r, rec: rec}
}

func (r *Recorder) event(parent SpanContext, kind EventKind, attrs []Attr) {
	r.add(&Record{Kind: KindEvent, Name: string(kind),
		Ctx: SpanContext{TraceID: parent.TraceID, Parent: parent.SpanID}, Start: r.now(), Attrs: attrs})
}

func (r *Recorder) StartSpan(name string, attrs ...Attr) Span {
	return r.startSpan(NewTraceContext(), name, attrs)
}

func (r *Recorder) Event(kind EventKind, attrs ...Attr) { r.event(SpanContext{}, kind, attrs) }

func (r *Recorder) Metrics() *Registry { return r.reg }

// Trace snapshots the recording as a serializable Trace: one pass over the
// records, each span hung under its parent (which started before it) and
// each event under its span.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{StartedAt: r.start}
	spans := make(map[uint64]*TraceSpan)
	for _, rec := range r.recs {
		parent := spans[rec.Ctx.Parent]
		switch rec.Kind {
		case KindSpan:
			sp := &TraceSpan{Name: rec.Name, StartUS: r.sinceUS(rec.Start), DurationUS: -1, Attrs: AttrMap(rec.Attrs)}
			if rec.Dur >= 0 {
				sp.DurationUS = r.sinceUS(rec.Start+rec.Dur) - sp.StartUS
			}
			spans[rec.Ctx.SpanID] = sp
			if parent != nil {
				parent.Children = append(parent.Children, sp)
			} else {
				t.Spans = append(t.Spans, sp)
			}
		case KindEvent:
			ev := TraceEvent{Kind: EventKind(rec.Name), AtUS: r.sinceUS(rec.Start), Attrs: AttrMap(rec.Attrs)}
			if parent != nil {
				parent.Events = append(parent.Events, ev)
			} else {
				t.Events = append(t.Events, ev)
			}
		}
	}
	t.Counters, t.Gauges = r.reg.Snapshot()
	if len(t.Counters) == 0 {
		t.Counters = nil
	}
	if len(t.Gauges) == 0 {
		t.Gauges = nil
	}
	return t
}

// WriteJSON serializes the recording as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Trace()); err != nil {
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	return nil
}

// ParseTrace reads a JSON trace produced by WriteJSON.
func ParseTrace(r io.Reader) (*Trace, error) {
	var t Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("obs: parsing trace: %w", err)
	}
	return &t, nil
}

// recordedSpan is a live span of a Recorder: its record in the recording.
type recordedSpan struct {
	owner *Recorder
	rec   *Record
}

func (s *recordedSpan) StartSpan(name string, attrs ...Attr) Span {
	return s.owner.startSpan(s.rec.Ctx.NewChild(), name, attrs)
}

func (s *recordedSpan) Event(kind EventKind, attrs ...Attr) { s.owner.event(s.rec.Ctx, kind, attrs) }

func (s *recordedSpan) Metrics() *Registry { return s.owner.reg }

// Annotate appends to the span's attributes; a later key overwrites an
// earlier one when Trace builds the map. The caller's slice is never
// appended into.
func (s *recordedSpan) Annotate(attrs ...Attr) {
	s.owner.mu.Lock()
	s.rec.Attrs = append(slices.Clip(s.rec.Attrs), attrs...)
	s.owner.mu.Unlock()
}

func (s *recordedSpan) End() {
	now := s.owner.now()
	s.owner.mu.Lock()
	if s.rec.Dur < 0 {
		s.rec.Dur = now - s.rec.Start
	}
	s.owner.mu.Unlock()
}
