package mvpp_test

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
)

// detailInt reads a numeric span attribute regardless of whether the trace
// came from memory (int64) or over the wire (float64).
func detailInt(v any) int64 {
	switch n := v.(type) {
	case int64:
		return n
	case float64:
		return int64(n)
	}
	return 0
}

// spanNames collects the span names of one trace-ring entry.
func spanNames(tr mvpp.QueryTrace) map[string]int {
	out := make(map[string]int, len(tr.Spans))
	for _, sp := range tr.Spans {
		out[sp.Name]++
	}
	return out
}

// TestPipelineTraceEndToEnd follows a single trace ID from a StreamDeltas
// batch through group commit, journal append, the maintenance epoch, and
// per-view refresh to the query that read the refreshed contents — the
// causal chain the tracing plane exists to reconstruct. The full span tree
// must be retrievable both from Server.RecentTraces and over /traces.
func TestPipelineTraceEndToEnd(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{
		TraceSampleEvery: 1,
		TelemetryAddr:    "127.0.0.1:0",
		Journal:          mvpp.NewMemJournal(),
		DeltaBatch:       1 << 20, // epochs only on Flush: one deterministic epoch
	})

	rows, err := srv.StreamDeltas(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("the streaming path accepted no rows")
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range design.Queries() {
		if _, err := srv.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	traces := srv.RecentTraces()
	var epochEntry *mvpp.QueryTrace
	for i := range traces {
		if traces[i].Kind == "epoch" {
			epochEntry = &traces[i]
		}
	}
	if epochEntry == nil {
		t.Fatalf("no epoch entry in the trace ring (%d entries)", len(traces))
	}
	if epochEntry.TraceID == 0 {
		t.Fatal("epoch entry has no causal trace ID")
	}
	// The epoch adopts the trace of the first sampled ingest batch it
	// landed: exactly one ingest entry shares its trace ID, and that entry
	// is the delta whose path we follow end to end.
	var ingestEntry *mvpp.QueryTrace
	for i := range traces {
		if traces[i].Kind == "ingest" && traces[i].TraceID == epochEntry.TraceID {
			ingestEntry = &traces[i]
		}
	}
	if ingestEntry == nil {
		t.Fatalf("no ingest entry shares the epoch's trace ID %d", epochEntry.TraceID)
	}

	ingestSpans := spanNames(*ingestEntry)
	for _, want := range []string{"ingest.stream", "ingest.accept", "ingest.group_commit", "journal.append", "epoch.landed"} {
		if ingestSpans[want] == 0 {
			t.Errorf("ingest entry is missing a %s span (has %v)", want, ingestSpans)
		}
	}
	epochSpans := spanNames(*epochEntry)
	for _, want := range []string{"serve.epoch", "epoch.apply", "query.read"} {
		if epochSpans[want] == 0 {
			t.Errorf("epoch entry is missing a %s span (has %v)", want, epochSpans)
		}
	}
	if epochSpans["refresh.incremental"]+epochSpans["refresh.recompute"] == 0 {
		t.Errorf("epoch entry refreshed no view (has %v)", epochSpans)
	}
	// The journal append's LSN must fall in the epoch's landed range
	// (lsn_lo, lsn_hi]: the delta's journal position is part of the chain.
	var appendLSN, loLSN, hiLSN int64
	for _, sp := range ingestEntry.Spans {
		if sp.Name == "journal.append" {
			appendLSN = detailInt(sp.Detail["lsn"])
		}
	}
	for _, sp := range epochEntry.Spans {
		if sp.Name == "serve.epoch" {
			loLSN, hiLSN = detailInt(sp.Detail["lsn_lo"]), detailInt(sp.Detail["lsn_hi"])
		}
	}
	if appendLSN == 0 || appendLSN <= loLSN || hiLSN < appendLSN {
		t.Errorf("journal LSNs do not chain: append %v, epoch range (%v, %v]", appendLSN, loLSN, hiLSN)
	}
	// The epoch span says how many operands its refreshes evaluated whole and
	// how many carried row counts they used; the server's first epoch takes
	// every count, by evaluating its operand whole.
	for _, sp := range epochEntry.Spans {
		if sp.Name != "serve.epoch" {
			continue
		}
		for _, attr := range []string{"operands_evaluated", "operands_reused"} {
			if _, ok := sp.Detail[attr]; !ok {
				t.Errorf("serve.epoch span carries no %s (has %v)", attr, sp.Detail)
			}
		}
		if epochSpans["refresh.incremental"] > 0 && detailInt(sp.Detail["operands_evaluated"]) == 0 {
			t.Errorf("the first epoch with incremental refreshes evaluated no operand whole: %v", sp.Detail)
		}
	}

	// Lineage names the epoch and the journal LSN range, stamped with the
	// same causal trace ID.
	lineage := srv.Lineage()
	if len(lineage) == 0 {
		t.Fatal("no lineage for any view")
	}
	traced := 0
	for name, vl := range lineage {
		if len(vl.Entries) == 0 {
			t.Errorf("%s: no lineage entries", name)
			continue
		}
		last := vl.Entries[len(vl.Entries)-1]
		if last.Epoch == 0 || last.LSNHi == 0 || last.LSNLo >= last.LSNHi {
			t.Errorf("%s: lineage names no epoch/LSN range: %+v", name, last)
		}
		if vl.Fingerprint == "" {
			t.Errorf("%s: no live fingerprint", name)
		}
		if last.TraceID == epochEntry.TraceID {
			traced++
		}
	}
	if traced == 0 {
		t.Errorf("no lineage entry carries the epoch's trace ID %d", epochEntry.TraceID)
	}

	// The same span tree must come back over the wire.
	addr := srv.TelemetryAddr()
	code, body := telemetryGet(t, addr, "/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var wire struct {
		Traces []mvpp.QueryTrace `json:"traces"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("parsing /traces: %v", err)
	}
	found := false
	for _, tr := range wire.Traces {
		if tr.Kind == "epoch" && tr.TraceID == epochEntry.TraceID && len(tr.Spans) >= len(epochEntry.Spans) {
			found = true
		}
	}
	if !found {
		t.Error("/traces does not carry the epoch's span tree")
	}
	code, body = telemetryGet(t, addr, "/lineage")
	if code != http.StatusOK {
		t.Fatalf("/lineage status %d", code)
	}
	var wireLineage struct {
		Views map[string]mvpp.ViewLineage `json:"views"`
	}
	if err := json.Unmarshal(body, &wireLineage); err != nil {
		t.Fatalf("parsing /lineage: %v", err)
	}
	if len(wireLineage.Views) != len(lineage) {
		t.Errorf("/lineage lists %d views, want %d", len(wireLineage.Views), len(lineage))
	}

	// Latency exemplars link histogram buckets back to sampled trace IDs,
	// and /metrics renders them OpenMetrics-style.
	exemplars := srv.LatencyExemplars()
	if len(exemplars) == 0 {
		t.Fatal("no latency exemplars after sampled queries")
	}
	for _, ex := range exemplars {
		if ex.TraceID == 0 {
			t.Errorf("exemplar without a trace ID: %+v", ex)
		}
	}
	_, mbody := telemetryGet(t, addr, "/metrics")
	if !strings.Contains(string(mbody), `# {trace_id="`) {
		t.Error("/metrics renders no exemplars on the latency histogram")
	}
}

// TestSpanTreeInvariants hammers the tracing plane with concurrent
// producers and readers (meant for -race) and then checks the structural
// invariants: every span's parent exists within its trace, and every
// view's lineage LSN ranges are ordered and non-overlapping.
func TestSpanTreeInvariants(t *testing.T) {
	design, srv := paperServer(t, mvpp.ServeOptions{
		TraceSampleEvery: 1,
		Journal:          mvpp.NewMemJournal(),
		DeltaBatch:       1 << 20,
	})
	ctx := context.Background()
	queries := design.Queries()

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := srv.Query(ctx, queries[(c+i)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := srv.StreamDeltas(0.01); err != nil {
				t.Error(err)
				return
			}
			if err := srv.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Spans of one trace may be spread over several ring entries (the
	// ingest batch, the epoch that landed it): resolve parents across all
	// entries sharing the trace ID.
	traces := srv.RecentTraces()
	spansByTrace := make(map[uint64]map[uint64]bool)
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			if tr.TraceID == 0 {
				t.Fatalf("entry %s/%d carries spans but no trace ID", tr.Kind, tr.ID)
			}
			if spansByTrace[tr.TraceID] == nil {
				spansByTrace[tr.TraceID] = make(map[uint64]bool)
			}
			if sp.SpanID == 0 {
				t.Fatalf("span %s of trace %d has no span ID", sp.Name, tr.TraceID)
			}
			if spansByTrace[tr.TraceID][sp.SpanID] {
				t.Fatalf("span ID %d duplicated within trace %d", sp.SpanID, tr.TraceID)
			}
			spansByTrace[tr.TraceID][sp.SpanID] = true
		}
	}
	total := 0
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			total++
			if sp.Parent == 0 {
				continue
			}
			if !spansByTrace[tr.TraceID][sp.Parent] {
				t.Errorf("trace %d: span %s (%d) has missing parent %d",
					tr.TraceID, sp.Name, sp.SpanID, sp.Parent)
			}
		}
	}
	if total == 0 {
		t.Fatal("no spans recorded")
	}

	// Lineage LSN ranges partition the journal per view: each entry is a
	// well-formed (lo, hi] range and consecutive entries never overlap.
	for name, vl := range srv.Lineage() {
		entries := vl.Entries
		for i, e := range entries {
			if e.LSNLo > e.LSNHi {
				t.Errorf("%s entry %d: inverted LSN range %d > %d", name, i, e.LSNLo, e.LSNHi)
			}
			if i > 0 && e.LSNLo < entries[i-1].LSNHi {
				t.Errorf("%s: entries %d and %d overlap: (%d,%d] then (%d,%d]",
					name, i-1, i, entries[i-1].LSNLo, entries[i-1].LSNHi, e.LSNLo, e.LSNHi)
			}
			if i > 0 && e.Epoch < entries[i-1].Epoch {
				t.Errorf("%s: epochs regress: %d then %d", name, entries[i-1].Epoch, e.Epoch)
			}
		}
	}
}

// lineageFingerprints reduces a Lineage export to view → live content
// fingerprint.
func lineageFingerprints(lineage map[string]mvpp.ViewLineage) map[string]string {
	out := make(map[string]string, len(lineage))
	for name, vl := range lineage {
		out[name] = vl.Fingerprint
	}
	return out
}

// TestLineageSurvivesCrashRestart runs the chaos crash-restart cycle at
// each injected crash point and requires every view's lineage to come back
// bit-identically: the restarted warehouse's live content fingerprints
// match the pre-crash ones, recovery seeds a lineage entry for every view,
// and the LSN ranges stay ordered across the restart boundary.
func TestLineageSurvivesCrashRestart(t *testing.T) {
	cases := []struct {
		name           string
		site           mvpp.FaultSite
		checkpointErrs bool
		committed      bool
	}{
		{name: "mid-segment write", site: mvpp.FaultSiteSnapshotSegmentWrite, checkpointErrs: true},
		{name: "pre-manifest rename", site: mvpp.FaultSiteSnapshotManifestWrite, checkpointErrs: true},
		{name: "post-manifest rename", site: mvpp.FaultSiteSnapshotManifestRename, checkpointErrs: true, committed: true},
		{name: "mid-journal compaction", site: mvpp.FaultSiteJournalTruncate, committed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := mvpp.ServeOptions{
				Seed:        21,
				SnapshotDir: filepath.Join(dir, "snaps"),
				JournalPath: filepath.Join(dir, "deltas.journal"),
			}

			// Boot A: one good generation on disk.
			_, a := paperServer(t, opts)
			if _, err := a.InjectDeltas(0.05); err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}

			// Boot B: more deltas through both paths, then crash the next
			// checkpoint at the injected point.
			armed := opts
			armed.Injector = mvpp.NewFaultInjector(1, mvpp.FaultPlan{
				tc.site: {ErrProb: 1},
			})
			_, b := paperServer(t, armed)
			if _, err := b.InjectDeltas(0.05); err != nil {
				t.Fatal(err)
			}
			if _, err := b.StreamDeltas(0.02); err != nil {
				t.Fatal(err)
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			want := lineageFingerprints(b.Lineage())
			_, cerr := b.Checkpoint()
			if tc.checkpointErrs && cerr == nil {
				t.Fatal("injected crash point did not surface from Checkpoint")
			}
			if !tc.checkpointErrs && cerr != nil {
				t.Fatal(cerr)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}

			// Boot C: restart over the debris. Recovery must seed a lineage
			// entry for every view before any new epoch runs.
			_, c := paperServer(t, opts)
			if ss := c.SnapshotStats(); ss.Recovery == nil || ss.Recovery.Cold {
				t.Fatalf("restart after crash went cold: %+v", ss.Recovery)
			}
			booted := c.Lineage()
			for name, vl := range booted {
				if len(vl.Entries) == 0 {
					t.Fatalf("%s: recovery seeded no lineage", name)
				}
				first := vl.Entries[0]
				if first.Mode != "restored" && first.Mode != "recovered-recompute" {
					t.Errorf("%s: recovery entry mode %q", name, first.Mode)
				}
				if tc.committed && first.Mode == "restored" && first.Fingerprint != want[name] {
					// Generation 2 committed before the crash: the manifest's
					// lineage watermark is the pre-crash state, bit-identical.
					t.Errorf("%s: restored fingerprint %s, want pre-crash %s",
						name, first.Fingerprint, want[name])
				}
			}

			// Replay the journal suffix and converge, then every view's live
			// fingerprint must match the pre-crash warehouse bit for bit.
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			got := lineageFingerprints(c.Lineage())
			names := make([]string, 0, len(want))
			for name := range want {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if got[name] != want[name] {
					t.Errorf("%s: post-recovery fingerprint %s, want %s", name, got[name], want[name])
				}
			}

			// The restart boundary must not break the lineage ordering
			// invariants either.
			for name, vl := range c.Lineage() {
				for i, e := range vl.Entries {
					if e.LSNLo > e.LSNHi {
						t.Errorf("%s entry %d: inverted LSN range %d > %d", name, i, e.LSNLo, e.LSNHi)
					}
					if i > 0 && e.LSNLo < vl.Entries[i-1].LSNHi {
						t.Errorf("%s: lineage overlaps across restart: %+v then %+v",
							name, vl.Entries[i-1], e)
					}
				}
			}
		})
	}
}
