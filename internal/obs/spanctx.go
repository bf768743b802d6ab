package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext is the causal identity of one pipeline span: which trace it
// belongs to, its own span ID, and the span it hangs under. It is a plain
// value — cheap to copy across channels and goroutines — so the write path
// (StreamIngest batch → group commit → journal append → epoch → per-view
// refresh) can carry causality without heap traffic. The zero SpanContext
// means "not traced": every propagation site guards with Valid(), keeping
// the nil-off discipline of the rest of the package.
type SpanContext struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent_span_id,omitempty"`
}

var (
	traceIDGen atomic.Uint64
	spanIDGen  atomic.Uint64
)

// NewTraceContext mints a fresh root context: a new trace ID with a new
// root span and no parent. IDs are process-unique, monotone, and never 0.
func NewTraceContext() SpanContext {
	return SpanContext{TraceID: traceIDGen.Add(1), SpanID: spanIDGen.Add(1)}
}

// NewChild mints a child context in the same trace, parented on c. A child
// of the zero context is itself a fresh root (so call sites do not need to
// branch on whether an upstream stage was sampled).
func (c SpanContext) NewChild() SpanContext {
	if !c.Valid() {
		return NewTraceContext()
	}
	return SpanContext{TraceID: c.TraceID, SpanID: spanIDGen.Add(1), Parent: c.SpanID}
}

// Valid reports whether the context identifies a sampled trace.
func (c SpanContext) Valid() bool { return c.TraceID != 0 }

// AttrMap renders an attribute list as a JSON-friendly map.
func AttrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// FlightRecord is one entry of the flight recorder: a completed span or a
// point event, stamped with its causal context.
type FlightRecord struct {
	Seq        uint64         `json:"seq"`
	Kind       string         `json:"kind"` // "span" | "event"
	Name       string         `json:"name"`
	TraceID    uint64         `json:"trace_id,omitempty"`
	SpanID     uint64         `json:"span_id,omitempty"`
	Parent     uint64         `json:"parent_span_id,omitempty"`
	AtUnixNS   int64          `json:"at_unix_ns"`
	DurationNS int64          `json:"duration_ns,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// FlightDump is one forensic dump: the recorder ring at the moment an
// episode (SLO breach, breaker open, checkpoint corruption) latched.
type FlightDump struct {
	Seq      uint64         `json:"seq"`
	Reason   string         `json:"reason"`
	AtUnixNS int64          `json:"at_unix_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Records  []FlightRecord `json:"records"`
	Path     string         `json:"path,omitempty"`
}

// FlightRecorder is a bounded lock-free ring of recent spans and events,
// kept always-on (recording is two atomic ops and one small allocation) so
// that when an episode latches, the recent past is already captured. Dump
// snapshots the ring, retains the dump in memory for the /flight endpoint,
// and — when a directory is configured — writes it to disk as JSON.
//
// Writers never block: Record claims a slot with an atomic increment and
// stores a pointer; concurrent readers see each slot atomically (a snapshot
// racing a wrapping writer may observe a slightly newer record in an old
// slot, which the per-record Seq makes detectable and ordering-safe).
type FlightRecorder struct {
	slots []atomic.Pointer[FlightRecord]
	cur   atomic.Uint64
	dir   string

	mu      sync.Mutex
	dumpSeq uint64
	dumps   []FlightDump // most recent last, bounded by maxDumps
}

// maxDumps bounds the in-memory dump history served on /flight.
const maxDumps = 8

// flightRing is how many records the ring holds.
const flightRing = 1024

// NewFlightRecorder builds a recorder holding the last flightRing records.
// dir is where dumps are written; empty keeps dumps in memory only.
func NewFlightRecorder(dir string) *FlightRecorder {
	return &FlightRecorder{slots: make([]atomic.Pointer[FlightRecord], flightRing), dir: dir}
}

// RecordSpan records one completed span. No-op on a nil recorder.
func (f *FlightRecorder) RecordSpan(ctx SpanContext, name string, start time.Time, dur time.Duration, attrs ...Attr) {
	if f == nil {
		return
	}
	f.record(&FlightRecord{
		Kind: "span", Name: name,
		TraceID: ctx.TraceID, SpanID: ctx.SpanID, Parent: ctx.Parent,
		AtUnixNS: start.UnixNano(), DurationNS: int64(dur),
		Attrs: AttrMap(attrs),
	})
}

// RecordEvent records one point event. No-op on a nil recorder.
func (f *FlightRecorder) RecordEvent(ctx SpanContext, kind EventKind, attrs ...Attr) {
	if f == nil {
		return
	}
	f.record(&FlightRecord{
		Kind: "event", Name: string(kind),
		TraceID: ctx.TraceID, SpanID: ctx.SpanID, Parent: ctx.Parent,
		AtUnixNS: time.Now().UnixNano(),
		Attrs:    AttrMap(attrs),
	})
}

func (f *FlightRecorder) record(rec *FlightRecord) {
	seq := f.cur.Add(1)
	rec.Seq = seq
	f.slots[(seq-1)%uint64(len(f.slots))].Store(rec)
}

// Snapshot returns the ring's current records, oldest first.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	out := make([]FlightRecord, 0, len(f.slots))
	for i := range f.slots {
		if r := f.slots[i].Load(); r != nil {
			out = append(out, *r)
		}
	}
	// Seq is the claim order; sort restores it across the wrap point.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Seq < out[j-1].Seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Dump snapshots the ring into a retained FlightDump and, when a dump
// directory is configured, writes it to disk as flight-<seq>-<reason>.json.
// Disk failures are reported on the dump's Attrs (key "write_error") rather
// than failing the dump — forensics must never take the server down. Nil
// recorders return nil.
func (f *FlightRecorder) Dump(reason string, attrs ...Attr) *FlightDump {
	if f == nil {
		return nil
	}
	d := FlightDump{
		Reason:   reason,
		AtUnixNS: time.Now().UnixNano(),
		Attrs:    AttrMap(attrs),
		Records:  f.Snapshot(),
	}
	f.mu.Lock()
	f.dumpSeq++
	d.Seq = f.dumpSeq
	if f.dir != "" {
		d.Path = filepath.Join(f.dir, fmt.Sprintf("flight-%d-%s.json", d.Seq, sanitizeReason(reason)))
	}
	if f.dir != "" {
		if err := writeDump(f.dir, d.Path, &d); err != nil {
			if d.Attrs == nil {
				d.Attrs = map[string]any{}
			}
			d.Attrs["write_error"] = err.Error()
			d.Path = ""
		}
	}
	f.dumps = append(f.dumps, d)
	if len(f.dumps) > maxDumps {
		f.dumps = f.dumps[len(f.dumps)-maxDumps:]
	}
	f.mu.Unlock()
	return &d
}

// Dumps returns the retained dumps, oldest first.
func (f *FlightRecorder) Dumps() []FlightDump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]FlightDump, len(f.dumps))
	copy(out, f.dumps)
	f.mu.Unlock()
	return out
}

func sanitizeReason(reason string) string {
	b := []byte(reason)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

func writeDump(dir, path string, d *FlightDump) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
