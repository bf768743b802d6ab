package mvpp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/engine"
)

// snapshotFingerprint answers every design query and returns its sorted
// rows — the bit-identity witness for crash-restart verification.
func snapshotFingerprint(t *testing.T, design *mvpp.Design, srv *mvpp.Server) map[string][]string {
	t.Helper()
	ctx := context.Background()
	out := make(map[string][]string)
	for _, q := range design.Queries() {
		res, err := srv.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out[q] = resultRows(res)
	}
	return out
}

func requireSameFingerprint(t *testing.T, got, want map[string][]string) {
	t.Helper()
	for q, w := range want {
		g := got[q]
		if len(g) != len(w) {
			t.Fatalf("%s: %d rows, want %d", q, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s row %d: %q, want %q", q, i, g[i], w[i])
			}
		}
	}
}

func TestSnapshotColdThenWarmBoot(t *testing.T) {
	dir := t.TempDir()
	opts := mvpp.ServeOptions{
		Seed:        21,
		SnapshotDir: filepath.Join(dir, "snaps"),
		JournalPath: filepath.Join(dir, "deltas.journal"),
	}

	design, first := paperServer(t, opts)
	ss := first.SnapshotStats()
	if !ss.Configured || ss.Recovery == nil || !ss.Recovery.Cold {
		t.Fatalf("first boot should be a cold recovery, got %+v", ss.Recovery)
	}
	if _, err := first.InjectDeltas(0.05); err != nil {
		t.Fatal(err)
	}
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := first.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Generation != 1 || res.Bytes <= 0 {
		t.Fatalf("checkpoint = %+v, want generation 1 with bytes", res)
	}
	want := snapshotFingerprint(t, design, first)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	_, second := paperServer(t, opts)
	ss = second.SnapshotStats()
	if ss.Recovery == nil || ss.Recovery.Cold {
		t.Fatalf("second boot should restore the snapshot, got %+v", ss.Recovery)
	}
	if ss.Recovery.ViewsRestored == 0 || ss.Recovery.BaseRestored == 0 {
		t.Fatalf("nothing restored: %+v", ss.Recovery)
	}
	if got := second.Stats().ReplayedDeltaRows; got != 0 {
		t.Errorf("replayed %d rows past a fresh checkpoint, want 0", got)
	}
	if err := second.Flush(); err != nil {
		t.Fatal(err)
	}
	requireSameFingerprint(t, snapshotFingerprint(t, design, second), want)
}

// TestSnapshotCrashRestartVerify is the chaos crash-restart-verify cycle:
// a checkpoint is killed at each injected crash point, the server
// restarts, and the recovered warehouse must answer every query
// bit-identically with zero lost deltas.
func TestSnapshotCrashRestartVerify(t *testing.T) {
	cases := []struct {
		name string
		site mvpp.FaultSite
		// checkpointErrs: the injected Checkpoint call surfaces an error.
		checkpointErrs bool
		// committed: despite the crash the generation landed (crash after
		// the manifest rename point of no return), so the restarted server
		// recovers generation 2 and replays nothing.
		committed bool
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

			// Boot A: lay down one good generation, then die cleanly.
			design, a := paperServer(t, opts)
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

			// Boot B: ingest more deltas, then crash at the injected point
			// of the next checkpoint. Everything the injector skips after
			// the error is exactly what a kill -9 would never run.
			armed := opts
			armed.Injector = mvpp.NewFaultInjector(1, mvpp.FaultPlan{
				tc.site: {ErrProb: 1},
			})
			_, b := paperServer(t, armed)
			injected, err := b.InjectDeltas(0.05)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			want := snapshotFingerprint(t, design, b)
			_, cerr := b.Checkpoint()
			if tc.checkpointErrs && cerr == nil {
				t.Fatal("injected crash point did not surface from Checkpoint")
			}
			if !tc.checkpointErrs {
				if cerr != nil {
					t.Fatal(cerr)
				}
				if tc.site == mvpp.FaultSiteJournalTruncate {
					if got := b.SnapshotStats().TruncateFailures; got == 0 {
						t.Error("crashed journal compaction not counted")
					}
				}
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}

			// Boot C: clean restart over the crash debris.
			_, c := paperServer(t, opts)
			ss := c.SnapshotStats()
			if ss.Recovery == nil || ss.Recovery.Cold {
				t.Fatalf("restart after crash went cold: %+v", ss.Recovery)
			}
			wantGen := uint64(1)
			if tc.committed {
				wantGen = 2
			}
			if ss.Recovery.Generation != wantGen {
				t.Errorf("recovered generation %d, want %d", ss.Recovery.Generation, wantGen)
			}
			// Zero lost deltas: everything B ingested past the surviving
			// watermark is replayed; a committed generation 2 already
			// contains them and replays nothing.
			replayed := c.Stats().ReplayedDeltaRows
			if tc.committed {
				if replayed != 0 {
					t.Errorf("replayed %d rows despite a committed checkpoint", replayed)
				}
			} else if replayed != int64(injected) {
				t.Errorf("replayed %d rows, want %d (boot B's uncheckpointed deltas)", replayed, injected)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			requireSameFingerprint(t, snapshotFingerprint(t, design, c), want)
		})
	}
}

// parentDigest is the lineage digest as binaries before the engine's
// Table.Fingerprint wrote it: every row rendered and joined with "|", the
// rows sorted, FNV-64a over the sorted sequence, 16 hex digits.
func parentDigest(tb *engine.Table) string {
	rows := make([]string, tb.NumRows())
	for i := range rows {
		parts := make([]string, 0, tb.Schema.Len())
		for _, v := range tb.Row(i).Values {
			parts = append(parts, v.String())
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// readManifestEntry reads one relation of a generation the way recovery
// does, from the extents its manifest entry lists, in order.
func readManifestEntry(t *testing.T, dir string, seg map[string]any) *engine.Table {
	t.Helper()
	var segs [][]byte
	var rows []int
	for _, x := range seg["extents"].([]any) {
		e := x.(map[string]any)
		data, err := os.ReadFile(filepath.Join(dir, e["file"].(string)))
		if err != nil {
			t.Fatal(err)
		}
		off, n := int(e["offset"].(float64)), int(e["bytes"].(float64))
		segs = append(segs, data[off:off+n])
		rows = append(rows, int(e["rows"].(float64)))
	}
	tb, err := engine.DecodeTableSegments(segs, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestSnapshotRestoresOlderDigestVerbatim: a generation whose lineage
// fingerprints an older binary wrote in its own digest format restores every
// view from its segment, not by recomputation, and the restored lineage
// entry reports the recorded mark verbatim. Recovery never compares a
// recorded digest with a live one — only a binary's own digests are.
func TestSnapshotRestoresOlderDigestVerbatim(t *testing.T) {
	dir := t.TempDir()
	opts := mvpp.ServeOptions{
		Seed:        21,
		SnapshotDir: filepath.Join(dir, "snaps"),
		JournalPath: filepath.Join(dir, "deltas.journal"),
	}
	_, first := paperServer(t, opts)
	if _, err := first.InjectDeltas(0.05); err != nil {
		t.Fatal(err)
	}
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the newest manifest's marks into the older format, each over
	// the very rows its segment holds.
	manifests, err := filepath.Glob(filepath.Join(opts.SnapshotDir, "gen-*", "MANIFEST.json"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("no committed generation: %v", err)
	}
	sort.Strings(manifests)
	path := manifests[len(manifests)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	current, older := make(map[string]string), make(map[string]string)
	for _, v := range m["views"].([]any) {
		seg := v.(map[string]any)
		name := seg["name"].(string)
		tb := readManifestEntry(t, filepath.Dir(path), seg)
		current[name] = fmt.Sprintf("%016x", tb.Fingerprint())
		if seg["lineage_fingerprint"] != current[name] {
			t.Fatalf("%s: checkpoint recorded %v, its segment digests to %s", name, seg["lineage_fingerprint"], current[name])
		}
		older[name] = parentDigest(tb)
		if older[name] == current[name] {
			t.Fatalf("%s: the two digest formats agree (%s); the test shows nothing", name, older[name])
		}
		seg["lineage_fingerprint"] = older[name]
	}
	if data, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, second := paperServer(t, opts)
	rs := second.SnapshotStats().Recovery
	if rs == nil || rs.Cold || rs.ViewsRestored != len(older) || rs.ViewsRecomputed != 0 {
		t.Fatalf("boot over older marks = %+v, want all %d views restored", rs, len(older))
	}
	lineage := second.Lineage()
	for name, mark := range older {
		vl := lineage[name]
		if len(vl.Entries) == 0 || vl.Entries[0].Mode != "restored" || vl.Entries[0].Fingerprint != mark {
			t.Errorf("%s: first lineage entry %+v, want mode restored with the recorded %s", name, vl.Entries, mark)
		}
		if vl.Fingerprint != current[name] {
			t.Errorf("%s: live fingerprint %s, want this binary's digest of the restored rows %s", name, vl.Fingerprint, current[name])
		}
	}
}

// TestSnapshotRestoresVersion1Generation: a generation in the layout the
// store wrote before packs — one segment file per relation, base_<table>.seg
// and view_<view>.seg, named by a version-1 manifest — restores every view
// from its segment, recomputing none, and answers every query as the server
// that wrote it did. The next checkpoint writes the current layout over it,
// and that restores too.
func TestSnapshotRestoresVersion1Generation(t *testing.T) {
	dir := t.TempDir()
	opts := mvpp.ServeOptions{
		Seed:        21,
		SnapshotDir: filepath.Join(dir, "snaps"),
		JournalPath: filepath.Join(dir, "deltas.journal"),
	}
	design, first := paperServer(t, opts)
	if _, err := first.InjectDeltas(0.05); err != nil {
		t.Fatal(err)
	}
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := snapshotFingerprint(t, design, first)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	manifests, err := filepath.Glob(filepath.Join(opts.SnapshotDir, "gen-*", "MANIFEST.json"))
	if err != nil || len(manifests) != 1 {
		t.Fatalf("%d committed generations (%v), want 1", len(manifests), err)
	}
	path := manifests[0]
	gen := filepath.Dir(path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	views := 0
	for kind, prefix := range map[string]string{"tables": "base_", "views": "view_"} {
		for _, x := range m[kind].([]any) {
			seg := x.(map[string]any)
			tb := readManifestEntry(t, gen, seg)
			var buf bytes.Buffer
			n, err := engine.WriteTableSegment(&buf, tb)
			if err != nil {
				t.Fatal(err)
			}
			file := prefix + seg["name"].(string) + ".seg"
			if err := os.WriteFile(filepath.Join(gen, file), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			seg["file"], seg["bytes"] = file, n
			delete(seg, "extents")
			if kind == "views" {
				views++
			}
		}
	}
	m["version"] = 1
	packs, _ := filepath.Glob(filepath.Join(gen, "pack-*.seg"))
	for _, p := range packs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if data, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, second := paperServer(t, opts)
	rs := second.SnapshotStats().Recovery
	if rs == nil || rs.Cold || views == 0 || rs.ViewsRestored != views || rs.ViewsRecomputed != 0 {
		t.Fatalf("boot over a version-1 generation = %+v, want all %d views restored", rs, views)
	}
	requireSameFingerprint(t, snapshotFingerprint(t, design, second), want)
	if _, err := second.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	_, third := paperServer(t, opts)
	if rs := third.SnapshotStats().Recovery; rs == nil || rs.Cold || rs.ViewsRestored != views || rs.Generation != 2 {
		t.Fatalf("boot over the generation written on top of it = %+v", rs)
	}
	requireSameFingerprint(t, snapshotFingerprint(t, design, third), want)
}

// TestSnapshotDropViewDoesNotResurrect exercises the public path: dropping
// a view through advice application must scrub its segments so a later
// restart recomputes instead of restoring stale rows.
func TestSnapshotDropViewColdStartStats(t *testing.T) {
	dir := t.TempDir()
	opts := mvpp.ServeOptions{
		Seed:        21,
		SnapshotDir: filepath.Join(dir, "snaps"),
		JournalPath: filepath.Join(dir, "deltas.journal"),
	}
	design, srv := paperServer(t, opts)
	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ss := srv.SnapshotStats()
	if ss.Checkpoints != 1 || len(ss.Views) == 0 {
		t.Fatalf("stats after checkpoint = %+v", ss)
	}
	for name, info := range ss.Views {
		if info.Bytes <= 0 || info.SnapshotAt.IsZero() {
			t.Errorf("view %s snapshot info = %+v", name, info)
		}
	}
	want := snapshotFingerprint(t, design, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	_, reborn := paperServer(t, opts)
	requireSameFingerprint(t, snapshotFingerprint(t, design, reborn), want)
	rs := reborn.SnapshotStats().Recovery
	if rs == nil || rs.Cold || rs.ViewsRecomputed != 0 {
		t.Fatalf("warm boot stats = %+v, want all views restored", rs)
	}
}

// TestCheckpointEntryNumberedByServedEpoch: a checkpoint's /traces entry is
// numbered by the served epoch it persists — the epoch its root span
// records — also on a server that resumed a snapshot's epoch, whose count
// of epochs run restarts at zero.
func TestCheckpointEntryNumberedByServedEpoch(t *testing.T) {
	dir := t.TempDir()
	opts := mvpp.ServeOptions{
		Seed:        21,
		SnapshotDir: filepath.Join(dir, "snaps"),
		JournalPath: filepath.Join(dir, "deltas.journal"),
	}
	_, first := paperServer(t, opts)
	if _, err := first.InjectDeltas(0.05); err != nil {
		t.Fatal(err)
	}
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	opts.TraceSampleEvery = 1
	_, second := paperServer(t, opts)
	if r := second.SnapshotStats().Recovery; r == nil || r.Cold || r.SnapshotEpoch < 1 {
		t.Fatalf("second boot should resume a snapshot at epoch >= 1, got %+v", r)
	}
	if _, err := second.InjectDeltas(0.05); err != nil {
		t.Fatal(err)
	}
	if err := second.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var entry *mvpp.QueryTrace
	for _, tr := range second.RecentTraces() {
		if tr.Kind == "checkpoint" {
			entry = &tr
		}
	}
	if entry == nil {
		t.Fatal("no checkpoint entry in /traces")
	}
	for _, sp := range entry.Spans {
		if sp.Name == "snapshot.checkpoint" && sp.Parent == 0 {
			if got := sp.Detail["epoch"]; got != int64(entry.ID) {
				t.Fatalf("checkpoint entry %d, its root span's epoch %v", entry.ID, got)
			}
			return
		}
	}
	t.Fatalf("checkpoint entry has no root span: %+v", entry.Spans)
}
