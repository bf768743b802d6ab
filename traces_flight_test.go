package mvpp_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
)

// TestTracesAndFlightAgree checks that /traces and the flight recorder tell
// one story about the write path, and that sampled queries cannot push the
// refresh decisions a breach dump exists to show out of the recorder.
//
// Every view is manual under a one-epoch freshness budget: the first epoch
// defers every view within budget, a checkpoint runs, 2 000 sampled queries
// follow, and the second epoch defers again and breaches. The slo_breach
// dump must then hold a refresh.deferred record of every view from both
// deferring epochs, and every write-path span present both in a
// RecentTraces entry and in the dump must agree on name, parent, start,
// duration and attributes.
func TestTracesAndFlightAgree(t *testing.T) {
	design, probe := paperServer(t, mvpp.ServeOptions{})
	views := probe.Views()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	policies := make(map[string]string, len(views))
	for _, v := range views {
		policies[v] = "manual"
	}
	dir := t.TempDir()
	_, srv := paperServer(t, mvpp.ServeOptions{
		TraceSampleEvery: 1,
		FlightDir:        filepath.Join(dir, "flight"),
		SnapshotDir:      filepath.Join(dir, "snaps"),
		Journal:          mvpp.NewMemJournal(),
		Policies:         policies,
		DefaultSLO:       mvpp.FreshnessSLO{MaxLagEpochs: 1},
		DeltaBatch:       1 << 20, // epochs only on Flush
	})

	// The first deferring epoch and a checkpoint: every view falls one
	// epoch behind, within its budget.
	if _, err := srv.StreamDeltas(0.01); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := len(srv.FlightDumps()); n != 0 {
		t.Fatalf("%d flight dumps before any view breached", n)
	}
	before := srv.RecentTraces()

	// A flood of sampled queries between the deferring epochs and the breach.
	ctx := context.Background()
	queries := design.Queries()
	for i := 0; i < 2000; i++ {
		if _, err := srv.Query(ctx, queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
	}

	// The second deferring epoch breaches every view's budget.
	if _, err := srv.StreamDeltas(0.01); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	after := srv.RecentTraces()
	var dump *mvpp.FlightDump
	dumps := srv.FlightDumps()
	for i := range dumps {
		if dumps[i].Reason == "slo_breach" {
			if dump != nil {
				t.Fatal("the SLO breach latched more than one dump")
			}
			dump = &dumps[i]
		}
	}
	if dump == nil {
		t.Fatal("no slo_breach dump after two deferring epochs")
	}

	// Retention: each view's deferral, from both epochs (distinct epoch
	// spans as parents), is still in the dump.
	deferredUnder := make(map[string]map[uint64]bool, len(views))
	for _, r := range dump.Records {
		if r.Kind != "span" || r.Name != "refresh.deferred" {
			continue
		}
		v, _ := r.Attrs["view"].(string)
		if deferredUnder[v] == nil {
			deferredUnder[v] = make(map[uint64]bool)
		}
		deferredUnder[v][r.Parent] = true
	}
	for _, v := range views {
		if n := len(deferredUnder[v]); n != 2 {
			t.Errorf("the dump holds refresh.deferred of %s from %d epochs, want 2", v, n)
		}
	}

	// Agreement: the dump's spans by span ID, against every span the two
	// RecentTraces reads returned.
	inDump := make(map[uint64]mvpp.FlightRecord)
	for _, r := range dump.Records {
		if r.Kind == "span" {
			inDump[r.SpanID] = r
		}
	}
	matched := 0
	for _, tr := range append(before, after...) {
		for _, sp := range tr.Spans {
			r, ok := inDump[sp.SpanID]
			if !ok {
				continue
			}
			matched++
			if sp.Name != r.Name || sp.Parent != r.Parent {
				t.Errorf("span %d: /traces has %s under %d, the dump %s under %d",
					sp.SpanID, sp.Name, sp.Parent, r.Name, r.Parent)
			}
			if sp.DurationUS != r.DurationNS/1000 {
				t.Errorf("span %d (%s): /traces lasts %d µs, the dump %d ns",
					sp.SpanID, sp.Name, sp.DurationUS, r.DurationNS)
			}
			if d := tr.StartedAt.UnixNano() + sp.AtUS*1000 - r.AtUnixNS; d <= -1000 || d >= 1000 {
				t.Errorf("span %d (%s): starts %d ns apart in /traces and the dump", sp.SpanID, sp.Name, d)
			}
			if !reflect.DeepEqual(sp.Detail, r.Attrs) {
				t.Errorf("span %d (%s): /traces attrs %v, the dump's %v", sp.SpanID, sp.Name, sp.Detail, r.Attrs)
			}
		}
	}
	if matched < 2*len(views) {
		t.Errorf("only %d spans are in both /traces and the dump, want at least %d", matched, 2*len(views))
	}
}
