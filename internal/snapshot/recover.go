package snapshot

import (
	"fmt"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/obs"
)

// ViewDef names one materialized view the live design wants, with its
// defining plan. Order matters: views are materialized (when they cannot be
// restored) in the given order, which must be topological if views are
// built over other views' relations.
type ViewDef struct {
	Name string
	Plan algebra.Node
	// Strategy is an opaque label carried through to the serving layer
	// (recompute/incremental); recovery does not interpret it.
	Strategy string
	// Policy is the view's refresh policy, another opaque label carried
	// through to the serving layer ("manual", "on-commit",
	// "scheduled:<interval>", "streaming"); recovery does not interpret it.
	Policy string
}

// RecoveryStats reports what one Recover call did — surfaced on /metrics
// and /views as the "last recovery" block.
type RecoveryStats struct {
	// Generation is the snapshot generation used, 0 on a cold boot.
	Generation uint64
	// SnapshotEpoch is the maintenance epoch the snapshot was taken at.
	SnapshotEpoch uint64
	// Watermark is the journal LSN floor recovery restored to; the caller
	// replays journal records past it.
	Watermark uint64
	// Cold reports a boot with no usable snapshot (first run, or base
	// segment corruption) — everything was built from scratch.
	Cold bool
	// BaseRestored counts base tables loaded from segments.
	BaseRestored int
	// ViewsRestored counts views loaded from segments.
	ViewsRestored int
	// ViewsRecomputed counts views rebuilt by executing their plans
	// (missing from the manifest, definition drift, or corruption).
	ViewsRecomputed int
	// CorruptArtifacts counts segments/manifests that failed validation.
	CorruptArtifacts int
	// Bytes is the total size of every restored segment.
	Bytes int64
	// Duration is wall-clock recovery time.
	Duration time.Duration
	// SnapshotCreatedAt is the used snapshot's commit time (zero when Cold).
	SnapshotCreatedAt time.Time
	// ViewLineage carries each restored view's lineage watermark from the
	// manifest, keyed by view name — the epoch, LSN, and fingerprint its
	// restored contents correspond to. Views recomputed during recovery
	// (and manifests predating lineage) have no entry.
	ViewLineage map[string]LineageMark
}

// Recover builds the warehouse from the newest consistent snapshot, falling
// back per-view (and wholesale, for base corruption) to recomputation:
//
//	cold      builds the full database from source when no snapshot is
//	          usable — typically synthetic generation or an ETL load. It
//	          must create every base table and leave views to Recover.
//	prep      configures a database before any view work (observer,
//	          injector, exec mode); called exactly once on whichever DB
//	          wins.
//	views     the live design's views in materialization order.
//	required  base relations the design needs; a manifest missing any of
//	          them forces a cold boot (the snapshot predates a schema
//	          change).
//
// The returned stats say how much was restored vs recomputed. Recovery
// never fails because of snapshot corruption — the worst outcome is a cold
// boot, exactly what a snapshotless system would do.
func Recover(st *Store, cold func() (*engine.DB, error), prep func(*engine.DB), views []ViewDef, required []string, blockRows int) (*engine.DB, *RecoveryStats, error) {
	start := time.Now()
	stats := &RecoveryStats{Cold: true}
	finish := func(db *engine.DB) (*engine.DB, *RecoveryStats, error) {
		stats.Duration = time.Since(start)
		if st != nil {
			obs.Emit(st.obsv, obs.EvSnapshotRecovery,
				obs.Int("generation", int64(stats.Generation)),
				obs.Bool("cold", stats.Cold),
				obs.Int("restored", int64(stats.ViewsRestored)),
				obs.Int("recomputed", int64(stats.ViewsRecomputed)),
				obs.Int("corrupt", int64(stats.CorruptArtifacts)),
				obs.Int("bytes", stats.Bytes))
		}
		return db, stats, nil
	}

	var m *Manifest
	if st != nil {
		var err error
		m, err = st.Manifest()
		if err != nil {
			return nil, nil, err
		}
	}
	var db *engine.DB
	var r *packReader
	if m != nil {
		r = newPackReader(m)
		defer r.close()
		db = st.tryRestoreBase(r, m, required, blockRows, stats)
	}
	if db == nil {
		// Cold boot: no snapshot, incomplete coverage, or base corruption.
		var err error
		db, err = cold()
		if err != nil {
			return nil, nil, err
		}
		if prep != nil {
			prep(db)
		}
		for _, v := range views {
			if _, err := db.Materialize(v.Name, v.Plan); err != nil {
				return nil, nil, fmt.Errorf("snapshot: materializing view %s on cold boot: %w", v.Name, err)
			}
			stats.ViewsRecomputed++
		}
		return finish(db)
	}
	if prep != nil {
		prep(db)
	}
	stats.Cold = false
	stats.Generation = m.Generation
	stats.SnapshotEpoch = m.Epoch
	stats.Watermark = m.Watermark
	stats.SnapshotCreatedAt = m.CreatedAt
	for _, v := range views {
		if st.tryRestoreView(r, db, m, v, stats) {
			continue
		}
		// Fallback: rebuild this one view from the (restored) base tables.
		if _, err := db.Materialize(v.Name, v.Plan); err != nil {
			return nil, nil, fmt.Errorf("snapshot: recomputing view %s: %w", v.Name, err)
		}
		stats.ViewsRecomputed++
	}
	return finish(db)
}

// tryRestoreBase loads every base table from the manifest into a fresh DB.
// It returns nil — demanding a cold boot — when the manifest is missing a
// required relation or any base segment fails to decode.
func (st *Store) tryRestoreBase(r *packReader, m *Manifest, required []string, blockRows int, stats *RecoveryStats) *engine.DB {
	have := make(map[string]bool, len(m.Tables))
	for _, s := range m.Tables {
		have[s.Name] = true
	}
	for _, r := range required {
		if !have[r] {
			return nil
		}
	}
	tables, err := st.loadBase(r, m)
	if err != nil {
		stats.CorruptArtifacts++
		return nil
	}
	db := engine.NewDB(blockRows)
	for _, t := range tables {
		if err := db.RestoreTable(t); err != nil {
			return nil
		}
		stats.BaseRestored++
		stats.Bytes += segmentBytes(m, t.Name)
	}
	return db
}

// tryRestoreView restores one view if the manifest has a segment for it
// under a matching definition hash that decodes cleanly. Definition drift
// is silent (the design changed; nothing is corrupt); decode failures
// count as corruption.
func (st *Store) tryRestoreView(r *packReader, db *engine.DB, m *Manifest, v ViewDef, stats *RecoveryStats) bool {
	vs, ok := m.View(v.Name)
	if !ok {
		return false
	}
	if vs.DefHash != DefHash(v.Plan) {
		return false
	}
	t, err := st.load(r, vs.Segment)
	if err != nil {
		stats.CorruptArtifacts++
		return false
	}
	if _, err := db.RestoreView(v.Name, v.Plan, t); err != nil {
		// Schema mismatch despite a matching hash — treat as corrupt.
		st.emitCorrupt(v.Name, err)
		stats.CorruptArtifacts++
		return false
	}
	st.ctrRestored.Inc()
	stats.ViewsRestored++
	stats.Bytes += vs.Bytes
	if vs.LineageEpoch > 0 || vs.LineageLSN > 0 || vs.LineageFingerprint != "" {
		if stats.ViewLineage == nil {
			stats.ViewLineage = make(map[string]LineageMark)
		}
		stats.ViewLineage[v.Name] = LineageMark{
			Epoch:       vs.LineageEpoch,
			LSN:         vs.LineageLSN,
			Fingerprint: vs.LineageFingerprint,
		}
	}
	return true
}

func segmentBytes(m *Manifest, name string) int64 {
	for _, s := range m.Tables {
		if s.Name == name {
			return s.Bytes
		}
	}
	return 0
}
