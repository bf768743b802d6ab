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

// RecordKind says what one ring Record is.
type RecordKind string

// Record kinds. Spans and events are the flight recorder's and a
// Recorder's; stages, entry headers and links exist only to be grouped back
// into /traces entries.
const (
	// KindSpan is a span: Start and Dur are set (Dur is -1 while a
	// Recorder's span is open).
	KindSpan RecordKind = "span"
	// KindEvent is a point event.
	KindEvent RecordKind = "event"
	// KindStage is one lifecycle stage of a sampled query.
	KindStage RecordKind = "stage"
	// KindEntry opens a /traces entry: Name is the entry's kind, Ctx its
	// root context, Start its start, Attrs its ID (and query name).
	KindEntry RecordKind = "entry"
	// KindLink names a trace (Ctx.TraceID) that contributed to an entry.
	KindLink RecordKind = "link"
)

// Record is one observed span, event, stage, entry header or link. It keeps
// the caller's attribute slice as is: the map a reader sees is built when
// the records are read, never when one is written. A Ring's records are
// immutable once added; a Recorder updates an open span's Attrs and Dur
// under its lock.
type Record struct {
	Seq  uint64
	Kind RecordKind
	Name string
	// Entry numbers the /traces entry the record belongs to; 0 for none.
	Entry uint64
	Ctx   SpanContext
	Start int64 // wall clock, Unix ns
	Dur   int64 // ns; spans only
	Attrs []Attr
}

// ringSize is how many records a Ring holds.
const ringSize = 1024

// Ring is a bounded lock-free ring of recent records. Writers never block:
// Add claims a slot with an atomic increment and publishes the record with
// an atomic pointer store, so recording costs two atomic ops and the
// record's allocation.
type Ring struct {
	slots []atomic.Pointer[Record]
	cur   atomic.Uint64
}

// NewRing builds a ring holding the last ringSize records.
func NewRing() *Ring { return &Ring{slots: make([]atomic.Pointer[Record], ringSize)} }

// Add publishes rec, stamping its Seq. No-op on a nil ring.
func (r *Ring) Add(rec *Record) {
	if r == nil {
		return
	}
	seq := r.cur.Add(1)
	rec.Seq = seq
	r.slots[(seq-1)%uint64(len(r.slots))].Store(rec)
}

// Records returns the ring's records, oldest first. A slot whose claim is
// not yet published, or that a wrapping writer has already reclaimed, holds
// no record of the window and is skipped.
func (r *Ring) Records() []*Record {
	if r == nil {
		return nil
	}
	n, size := r.cur.Load(), uint64(len(r.slots))
	lo := uint64(1)
	if n > size {
		lo = n - size + 1
	}
	out := make([]*Record, 0, n+1-lo)
	for seq := lo; seq <= n; seq++ {
		if rec := r.slots[(seq-1)%size].Load(); rec != nil && rec.Seq == seq {
			out = append(out, rec)
		}
	}
	return out
}

// FlightRecord is one entry of a flight dump: a completed span or a point
// event, stamped with its causal context.
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

// FlightRecorder turns a Ring of recent spans and events, kept always-on so
// that the recent past is already captured when an episode latches, into
// forensic dumps. Dump reads the ring, retains the dump in memory for the
// /flight endpoint, and — when a directory is configured — writes it to
// disk as JSON.
type FlightRecorder struct {
	ring *Ring
	dir  string

	mu      sync.Mutex
	dumpSeq uint64
	dumps   []FlightDump // most recent last, bounded by maxDumps
}

// maxDumps bounds the in-memory dump history served on /flight.
const maxDumps = 8

// NewFlightRecorder builds a recorder dumping ring. dir is where dumps are
// written; empty keeps dumps in memory only.
func NewFlightRecorder(ring *Ring, dir string) *FlightRecorder {
	return &FlightRecorder{ring: ring, dir: dir}
}

// flightRecords renders the span and event records among recs, in order,
// in their wire form; the other kinds are left out.
func flightRecords(recs []*Record) []FlightRecord {
	out := make([]FlightRecord, 0, len(recs))
	for _, r := range recs {
		if r.Kind != KindSpan && r.Kind != KindEvent {
			continue
		}
		out = append(out, FlightRecord{
			Seq: r.Seq, Kind: string(r.Kind), Name: r.Name,
			TraceID: r.Ctx.TraceID, SpanID: r.Ctx.SpanID, Parent: r.Ctx.Parent,
			AtUnixNS: r.Start, DurationNS: r.Dur,
			Attrs: AttrMap(r.Attrs),
		})
	}
	return out
}

// Dump reads the ring into a retained FlightDump and, when a dump
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
		Records:  flightRecords(f.ring.Records()),
	}
	f.mu.Lock()
	f.dumpSeq++
	d.Seq = f.dumpSeq
	if f.dir != "" {
		d.Path = filepath.Join(f.dir, fmt.Sprintf("flight-%d-%s.json", d.Seq, sanitizeReason(reason)))
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
