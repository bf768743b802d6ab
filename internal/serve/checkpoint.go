package serve

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"time"

	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/snapshot"
)

// Snapshot-trigger defaults (see Config.SnapshotEveryEpochs /
// Config.SnapshotRetain).
const (
	DefaultSnapshotEveryEpochs = 8
	DefaultSnapshotRetain      = 3
)

// ErrNoSnapshots reports a Checkpoint call on a server without a store.
var ErrNoSnapshots = errors.New("serve: no snapshot store configured")

// ViewSnapshotInfo is one view's durable-snapshot status.
type ViewSnapshotInfo struct {
	// SnapshotAt is when the view's newest persisted segment was committed.
	SnapshotAt time.Time
	// Bytes is that segment's size.
	Bytes int64
	// Epoch is the maintenance epoch the segment captured.
	Epoch uint64
}

// SnapshotStats reports the server's durable-snapshot state — the last
// checkpoint, the per-view segment ages the telemetry plane turns into
// mv_snapshot_age_seconds, and the recovery that booted this server.
type SnapshotStats struct {
	// Configured reports whether a snapshot store is wired at all.
	Configured bool
	// Generation is the last committed checkpoint's generation (0 before
	// the first).
	Generation uint64
	// LastCheckpointAt/LastBytes/LastDuration describe the last committed
	// checkpoint.
	LastCheckpointAt time.Time
	LastBytes        int64
	LastDuration     time.Duration
	// Checkpoints counts committed checkpoints this process; Skipped counts
	// trigger firings that found unlanded deltas and declined; Failures
	// counts checkpoint attempts that errored.
	Checkpoints, Skipped, Failures int64
	// TruncateFailures counts post-checkpoint journal compactions that
	// failed (the checkpoint itself stands; the journal just stays longer).
	TruncateFailures int64
	// AgedOut counts snapshot generations removed by retention GC.
	AgedOut int64
	// Views is the per-view snapshot status, keyed by view name. Only views
	// captured by the last committed checkpoint appear.
	Views map[string]ViewSnapshotInfo
	// Recovery is how this server booted (nil when the server was built
	// without going through snapshot recovery).
	Recovery *snapshot.RecoveryStats
}

// SnapshotStats reports the server's durable-snapshot state: the value the
// maintainer last published.
func (s *Server) SnapshotStats() SnapshotStats {
	out := *s.snapStats.Load()
	out.Views = maps.Clone(out.Views) // the published map is shared
	return out
}

// editSnapStats publishes the successor of the snapshot statistics.
// Maintainer only.
func (s *Server) editSnapStats(edit func(*SnapshotStats)) {
	next := *s.snapStats.Load()
	edit(&next)
	s.snapStats.Store(&next)
}

// Checkpoint persists a consistent snapshot generation now: every base
// table plus every healthy, fully-caught-up view, stamped with the journal
// watermark of the last landed epoch. After the commit it compacts the
// delta journal up to that watermark and ages out old generations by the
// retention count. Returns (nil, nil) when the warehouse is mid-epoch
// (deltas staged in the engine whose epoch has not landed).
func (s *Server) Checkpoint() (res *snapshot.CheckpointResult, err error) {
	if s.snap == nil {
		return nil, ErrNoSnapshots
	}
	err = s.maintain(func() (err error) {
		res, err = s.checkpointLocked()
		return err
	})
	return res, err
}

// checkpointLocked is Checkpoint as a step of the maintainer's turn.
func (s *Server) checkpointLocked() (*snapshot.CheckpointResult, error) {
	// Checkpoints are part of the pipeline's causal story: each attempt
	// gets its own trace-ring entry (kind "checkpoint", numbered by the
	// served epoch it persists) when tracing is armed, with declines,
	// segment writes, compaction, and GC as spans.
	ckStart := time.Now()
	var cctx obs.SpanContext
	var ctr uint64
	if s.tracingArmed() {
		cctx = obs.NewTraceContext()
		ctr = s.pipelineTrace("checkpoint", s.state.Load().epoch, cctx)
	}
	// Unlanded deltas mean an epoch was aborted and its retry is due: the
	// published set is still whole and exactly the acked watermark's, but a
	// generation written now would be superseded by that retry at once.
	// Decline; the next trigger after the epoch lands will succeed.
	if s.enginePendingDeltas() {
		s.editSnapStats(func(ss *SnapshotStats) { ss.Skipped++ })
		declined := s.snapStats.Load().Skipped
		// A declined checkpoint must not be silent: repeated declines mean
		// the warehouse never reaches a landed state between triggers (a
		// stuck epoch), and /metrics should show it.
		s.stats.checkpointDeclined.Inc()
		obs.Emit(s.obsv, obs.EvSnapshotCheckpoint,
			obs.String("action", "declined"),
			obs.String("reason", "unlanded deltas"),
			obs.Int("declines", declined))
		if cctx.Valid() {
			s.traceSpan(ctr, cctx, "snapshot.checkpoint", ckStart, time.Since(ckStart),
				obs.String("outcome", "declined"), obs.String("reason", "unlanded deltas"))
		}
		return nil, nil
	}
	sc := s.sched
	sc.mu.Lock()
	watermark := sc.ackedLSN
	type viewPick struct {
		name  string
		epoch uint64
	}
	var picks []viewPick
	for name, vs := range sc.views {
		// Only views whose stored rows are exactly the base tables at the
		// watermark: no refresh debt, breaker closed. An unhealthy view is
		// simply left out — recovery recomputes it.
		if vs.lag == 0 && vs.state == BreakerClosed {
			picks = append(picks, viewPick{name: name, epoch: vs.epoch})
		}
	}
	sc.mu.Unlock()
	// Name order, not the registry's map order: one state gives one manifest
	// and one pack layout.
	slices.SortFunc(picks, func(a, b viewPick) int { return strings.Compare(a.name, b.name) })

	// The served state is the last landed epoch's: only the maintainer publishes.
	st := s.state.Load()
	in := snapshot.CheckpointInput{Epoch: st.epoch, Watermark: watermark}
	rels := st.rels
	for _, name := range rels.Tables() {
		t, _ := rels.Table(name) // listed by the same set
		in.Tables = append(in.Tables, t)
	}
	for _, p := range picks {
		// The registry scanned above and rels name the same views.
		v, err := rels.View(p.name)
		if err != nil {
			return nil, err
		}
		// Stamp the segment with the view's lineage watermark: the epoch it
		// reached, the acked LSN its rows cover, and the fingerprint of the
		// exact contents being persisted. Recovery seeds the restored view's
		// lineage from this mark, and the chaos suite verifies the restored
		// rows hash back to it.
		table := v.Table()
		in.Views = append(in.Views, snapshot.ViewData{
			Name: p.name, Plan: v.Plan, Table: table, Epoch: p.epoch,
			Lineage: snapshot.LineageMark{
				Epoch:       p.epoch,
				LSN:         watermark,
				Fingerprint: hexDigest(table.Fingerprint()),
			},
		})
	}

	res, err := s.snap.Checkpoint(in)
	if err != nil {
		s.editSnapStats(func(ss *SnapshotStats) { ss.Failures++ })
		if cctx.Valid() {
			s.traceSpan(ctr, cctx, "snapshot.checkpoint", ckStart, time.Since(ckStart),
				obs.String("outcome", "failed"), obs.String("error", err.Error()))
		}
		// A failed checkpoint is a forensic episode: dump the recent past.
		s.dumpFlight("checkpoint_error",
			obs.Int("epoch", int64(in.Epoch)),
			obs.String("error", err.Error()))
		return nil, err
	}

	// Post-commit housekeeping, both best-effort: the checkpoint stands
	// even if compaction or GC fails.
	truncated := true
	if sc.journal != nil && watermark > 0 {
		tstart := time.Now()
		terr := sc.journal.Truncate(watermark)
		if cctx.Valid() {
			tattrs := []obs.Attr{obs.Int("watermark", int64(watermark))}
			if terr != nil {
				tattrs = append(tattrs, obs.String("error", terr.Error()))
			}
			s.traceSpan(ctr, cctx.NewChild(), "journal.truncate", tstart, time.Since(tstart), tattrs...)
		}
		if terr != nil {
			truncated = false
			s.editSnapStats(func(ss *SnapshotStats) { ss.TruncateFailures++ })
			obs.Emit(s.obsv, obs.EvServeJournal,
				obs.String("action", "truncate"), obs.String("error", terr.Error()))
		}
	}
	gcStart := time.Now()
	aged, gcErr := s.snap.GC(s.snapRetain)
	if cctx.Valid() {
		gattrs := []obs.Attr{obs.Int("aged_out", int64(aged))}
		if gcErr != nil {
			gattrs = append(gattrs, obs.String("error", gcErr.Error()))
		}
		s.traceSpan(ctr, cctx.NewChild(), "snapshot.gc", gcStart, time.Since(gcStart), gattrs...)
	}
	if gcErr != nil {
		obs.Emit(s.obsv, obs.EvSnapshotCheckpoint,
			obs.String("gc_error", gcErr.Error()))
	}

	now := time.Now()
	views := make(map[string]ViewSnapshotInfo, len(in.Views))
	for _, v := range in.Views {
		views[v.Name] = ViewSnapshotInfo{SnapshotAt: now, Bytes: res.ViewBytes[v.Name], Epoch: v.Epoch}
	}
	s.editSnapStats(func(ss *SnapshotStats) {
		ss.Generation, ss.LastCheckpointAt, ss.LastBytes, ss.LastDuration = res.Generation, now, res.Bytes, res.Duration
		ss.Checkpoints++
		ss.AgedOut += int64(aged)
		ss.Views = views
	})
	s.snapBehind = false
	s.stats.snapBytes.Set(float64(res.Bytes))
	s.stats.snapGen.Set(float64(res.Generation))

	if cctx.Valid() {
		s.traceSpan(ctr, cctx, "snapshot.checkpoint", ckStart, time.Since(ckStart),
			obs.String("outcome", "ok"),
			obs.Int("generation", int64(res.Generation)),
			obs.Int("epoch", int64(in.Epoch)),
			obs.Int("watermark", int64(watermark)),
			obs.Int("views", int64(len(in.Views))),
			obs.Int("bytes", res.Bytes),
			obs.Int("written", res.Written))
	}

	obs.Emit(s.obsv, obs.EvSnapshotCheckpoint,
		obs.Int("generation", int64(res.Generation)),
		obs.Int("epoch", int64(in.Epoch)),
		obs.Int("watermark", int64(watermark)),
		obs.Int("tables", int64(len(in.Tables))),
		obs.Int("views", int64(len(in.Views))),
		obs.Int("bytes", res.Bytes),
		obs.Int("written", res.Written),
		obs.Int("aged_out", int64(aged)),
		obs.Bool("journal_truncated", truncated))
	return res, nil
}

// checkpointIfDueLocked is the epoch-count trigger, a step of the
// maintainer's turn after a landed epoch: every SnapshotEveryEpochs epochs,
// take a checkpoint. Idle turns (nothing staged, nothing landed) never
// advance the epoch and so never trigger.
func (s *Server) checkpointIfDueLocked() {
	if s.snap == nil || s.snapEveryEpochs <= 0 {
		return
	}
	cur := s.state.Load().epoch
	if cur-s.snapEpoch < uint64(s.snapEveryEpochs) {
		return
	}
	s.snapEpoch = cur
	_, err := s.checkpointLocked()
	s.reportTriggered(err)
}

// checkpointIfChanged is the wall-clock trigger, one more case of the
// scheduler's loop: checkpoint the served state unless the last committed
// generation already captured this very state — an idle warehouse is not
// rewritten every interval.
func (s *Server) checkpointIfChanged() {
	s.reportTriggered(s.maintain(func() error {
		if !s.snapBehind {
			return nil
		}
		_, err := s.checkpointLocked()
		return err
	}))
}

// reportTriggered surfaces a trigger's failed checkpoint: nobody called it,
// so nobody is handed the error.
func (s *Server) reportTriggered(err error) {
	if err != nil {
		obs.Emit(s.obsv, obs.EvSnapshotCheckpoint, obs.String("error", err.Error()))
	}
}
