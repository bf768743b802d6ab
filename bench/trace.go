package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call from the harness into a layer. Spans are recorded
// from outside the program: the harness stamps the clock around the call.
type Span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the run's origin.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Parent is the ID of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// Op numbers the operation; spans of one operation share it.
	Op int64 `json:"op"`
	// ID is unique within the file.
	ID int `json:"id"`
}

// maxSpans bounds one tracer's memory; a read client at 300k op/s would
// otherwise hold tens of millions of spans. Spans past the bound are
// counted, and the layer histograms still see every op.
const maxSpans = 100_000

// Tracer records the spans of one goroutine. A nil Tracer records nothing,
// which is how the untraced runs call the same code.
type Tracer struct {
	origin  time.Time
	base    int // ID offset, so IDs stay unique across tracers
	spans   []Span
	dropped int64
}

// NewTracer returns tracer number idx of a run that started at origin.
func NewTracer(origin time.Time, idx int) *Tracer {
	return &Tracer{origin: origin, base: idx * maxSpans, spans: make([]Span, 0, 4096)}
}

// Begin opens a span and returns its ID, or -1 when nothing was recorded.
func (t *Tracer) Begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := t.base + len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Op: op, ID: id})
	return id
}

// End closes the span.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id-t.base].End = int64(time.Since(t.origin))
}

// spanFile is what a traced run leaves in the output directory.
type spanFile struct {
	Workload string `json:"workload"`
	Dropped  int64  `json:"dropped"`
	Spans    []Span `json:"spans"`
}

// writeSpans writes the tracers' spans to dir/spans-<workload>.json.
func writeSpans(dir, workload string, tracers []*Tracer) (string, error) {
	out := spanFile{Workload: workload}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		out.Dropped += t.dropped
		out.Spans = append(out.Spans, t.spans...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s.json", workload))
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
