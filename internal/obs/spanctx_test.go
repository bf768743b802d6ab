package obs

import (
	"sync"
	"testing"
)

// TestRingKeepsTheLastRecordsInOrder: past the wrap point a ring reads back
// exactly its last ringSize records, oldest first.
func TestRingKeepsTheLastRecordsInOrder(t *testing.T) {
	var nilRing *Ring
	nilRing.Add(&Record{Kind: KindSpan})
	if recs := nilRing.Records(); recs != nil {
		t.Fatalf("a nil ring read back %d records", len(recs))
	}
	r := NewRing()
	if recs := r.Records(); len(recs) != 0 {
		t.Fatalf("an empty ring read back %d records", len(recs))
	}
	const extra = 10
	for i := 0; i < ringSize+extra; i++ {
		r.Add(&Record{Kind: KindSpan, Name: "s"})
	}
	recs := r.Records()
	if len(recs) != ringSize {
		t.Fatalf("read back %d records, want %d", len(recs), ringSize)
	}
	for i, rec := range recs {
		if want := uint64(extra + 1 + i); rec.Seq != want {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, want)
		}
	}
}

// TestRingBesideWriters (meant for -race): readers racing several writers
// always see strictly increasing sequence numbers.
func TestRingBesideWriters(t *testing.T) {
	r := NewRing()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Add(&Record{Kind: KindEvent, Name: "e"})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		recs := r.Records()
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq <= recs[i-1].Seq {
				t.Fatalf("seq %d follows %d", recs[i].Seq, recs[i-1].Seq)
			}
		}
	}
	if n := len(r.Records()); n != ringSize {
		t.Errorf("a full ring read back %d records, want %d", n, ringSize)
	}
}

// TestFlightDumpHoldsSpansAndEventsOnly: a dump renders the ring's spans
// and events, in order and with their attributes as a map, and leaves the
// /traces bookkeeping (entry headers, stages, links) out.
func TestFlightDumpHoldsSpansAndEventsOnly(t *testing.T) {
	r := NewRing()
	ctx := NewTraceContext()
	for _, k := range []RecordKind{KindEntry, KindSpan, KindStage, KindLink, KindEvent} {
		r.Add(&Record{Kind: k, Name: string(k), Ctx: ctx, Start: 7, Dur: 3, Attrs: []Attr{Int("n", 1)}})
	}
	d := NewFlightRecorder(r, "").Dump("test")
	if len(d.Records) != 2 {
		t.Fatalf("dump holds %d records, want 2: %+v", len(d.Records), d.Records)
	}
	for i, want := range []string{"span", "event"} {
		got := d.Records[i]
		if got.Kind != want || got.Name != want || got.TraceID != ctx.TraceID || got.SpanID != ctx.SpanID ||
			got.AtUnixNS != 7 || got.DurationNS != 3 || got.Attrs["n"] != int64(1) {
			t.Errorf("record %d = %+v, want the %s record", i, got, want)
		}
	}
}
