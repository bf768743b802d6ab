package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// recorderScript drives a Recorder through every shape its trace can take:
// nested spans, siblings started in order and then annotated, evented and
// ended from parallel goroutines, an annotate that overwrites a key, span
// and loose events, an unfinished span with a finished child, a double End,
// a second top-level span, and counters and gauges.
func recorderScript() *Recorder {
	rec := NewRecorder(nil)
	rec.Event(EvPlanChosen, String("query", "Q0")) // loose, before any span

	root := rec.StartSpan("design", Int("queries", 3), String("mode", "greedy"))
	opt := root.StartSpan("optimize")
	for _, q := range []string{"Q1", "Q2"} {
		qs := opt.StartSpan("optimize.query", String("query", q))
		qs.Event(EvPlanChosen, String("query", q), Float("cost", 10.5))
		qs.End()
	}
	opt.End()

	gen := root.StartSpan("generate")
	rotations := make([]Span, 4)
	for i := range rotations {
		rotations[i] = gen.StartSpan("rotation", Int("rotation", int64(i)))
	}
	var wg sync.WaitGroup
	for i, sp := range rotations {
		wg.Add(1)
		go func(i int, sp Span) {
			defer wg.Done()
			sp.Event(EvCandidate, Int("rotation", int64(i)), Int("vertices", int64(3+i)))
			sp.Annotate(Int("vertices", int64(3+i)))
			sp.Metrics().Counter(CtrMergeAttempts).Inc()
			sp.End()
		}(i, sp)
	}
	wg.Wait()
	gen.Event(EvCandidateDedup, Int("rotation", 3))
	gen.End()
	gen.End() // a second End changes nothing

	sel := root.StartSpan("select", String("phase", "start"))
	sel.Annotate(String("phase", "done"), Int("views", 2)) // overwrites phase
	sel.Event(EvSelectStep, String("vertex", "tmp2"), String("action", "materialize"))
	sel.End()

	root.Annotate(Float("total", 99.5))
	root.Event(EvCosts, Float("total", 99.5))
	root.End()
	rec.Event(EvSafeguard, String("strategy", "all-virtual")) // loose, after

	open := rec.StartSpan("simulate") // never ended
	open.StartSpan("engine").End()    // finished child of an unfinished span
	open.Event(EvEngineOp, String("op", "scan"))

	rec.Metrics().Counter(CtrCandidates).Add(3)
	rec.Metrics().Gauge("quality").Set(0.75)
	return rec
}

// zeroTimes replaces a trace's clock readings with zeros, keeping the -1
// that marks an unfinished span, so traces of one script compare equal.
func zeroTimes(tr *Trace) {
	tr.StartedAt = time.Time{}
	for i := range tr.Events {
		tr.Events[i].AtUS = 0
	}
	var walk func([]*TraceSpan)
	walk = func(spans []*TraceSpan) {
		for _, s := range spans {
			s.StartUS = 0
			if s.DurationUS >= 0 {
				s.DurationUS = 0
			}
			for i := range s.Events {
				s.Events[i].AtUS = 0
			}
			walk(s.Children)
		}
	}
	walk(tr.Spans)
}

func traceJSON(t *testing.T, tr *Trace) []byte {
	t.Helper()
	zeroTimes(tr)
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestRecorderTraceShape pins the JSON trace a fixed script produces —
// span tree, start order, attribute overwrites, loose and span events, the
// unfinished-span marker, counters and gauges — against a golden file, and
// checks that WriteJSON and ParseTrace round-trip it.
func TestRecorderTraceShape(t *testing.T) {
	rec := recorderScript()
	got := traceJSON(t, rec.Trace())
	golden := filepath.Join("testdata", "recorder_trace.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from %s:\n%s", golden, got)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again := traceJSON(t, back); !bytes.Equal(again, want) {
		t.Fatalf("ParseTrace(WriteJSON) differs from %s:\n%s", golden, again)
	}
}
