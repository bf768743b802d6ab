package mvpp

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/costaudit"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/optimizer"
	"github.com/warehousekit/mvpp/internal/serve"
	"github.com/warehousekit/mvpp/internal/snapshot"
	"github.com/warehousekit/mvpp/internal/sqlparse"
	"github.com/warehousekit/mvpp/internal/telemetry"
)

// ServeOptions configures Design.NewServer.
type ServeOptions struct {
	// Scale sizes the synthetic warehouse relative to the catalog
	// statistics (0 defaults to 0.01, like Simulate).
	Scale float64
	// Seed drives the deterministic data generator.
	Seed int64
	// Workers is how many cache misses may execute at once, each on its
	// caller's goroutine (0 → default).
	Workers int
	// QueueDepth is how many callers may wait for an execution slot before
	// a newcomer counts as backpressured (0 → default).
	QueueDepth int
	// CacheCapacity bounds the result cache in entries (0 → default,
	// negative disables caching).
	CacheCapacity int
	// DeltaBatch is how many ingested delta rows trigger a maintenance
	// epoch (0 → default).
	DeltaBatch int
	// Observer receives serving events, counters and gauges; nil
	// falls back to the designer's observer.
	Observer Observer
	// Retry bounds the retry-with-exponential-backoff loop around every
	// refresh step of a maintenance epoch. Zero values take defaults.
	Retry RetryPolicy
	// Breaker configures the per-view circuit breaker that degrades queries
	// to base relations while a view cannot be kept fresh. Zero values take
	// defaults (StalenessBound 0 disables the bound).
	Breaker BreakerPolicy
	// Policies maps view name → refresh-policy spec ("manual", "on-commit",
	// "scheduled:<duration>", "streaming"), overriding any policy the
	// design set with SetRefreshPolicy. Views listed nowhere take
	// DefaultPolicy.
	Policies map[string]string
	// DefaultPolicy is the refresh-policy spec for views with no explicit
	// policy ("" → on-commit, the legacy behavior).
	DefaultPolicy string
	// SLOs maps view name → freshness SLO; views not listed take
	// DefaultSLO. A breached SLO marks the view STALE, degrades its queries
	// to base relations, and counts a violation.
	SLOs map[string]FreshnessSLO
	// DefaultSLO is the freshness SLO for views not in SLOs (zero → no
	// SLO).
	DefaultSLO FreshnessSLO
	// Ingest bounds the CDC streaming-ingest path behind StreamDeltas
	// (change-feed buffer, block deadline). Zero values take defaults.
	Ingest IngestConfig
	// Injector, when set, arms deterministic fault injection at the engine
	// and serving-layer sites (chaos testing). Nil injects nothing.
	Injector *FaultInjector
	// Journal, when set, write-ahead-logs every ingested delta batch so a
	// server restarted over it (same design and Seed) replays every delta
	// its boot state lacks. The caller owns its lifetime. Mutually exclusive
	// with JournalPath.
	Journal DeltaJournal
	// JournalPath, when non-empty, opens (or resumes) the crash-safe
	// file-backed delta journal at that path; the Server owns it and closes
	// it on Close. Mutually exclusive with Journal.
	JournalPath string
	// SnapshotDir, when non-empty, arms the durable snapshot store at that
	// directory. On boot the newest consistent snapshot generation is
	// restored — views whose definitions changed or whose segments are
	// corrupt fall back to recomputation, never a failed boot — and only
	// the journal suffix past the snapshot watermark is replayed. While
	// serving, checkpoints fire on epoch count and wall-clock interval,
	// compact the delta journal up to the acked watermark, and age out old
	// generations. Empty keeps snapshots off.
	SnapshotDir string
	// SnapshotInterval is the wall-clock checkpoint trigger period (0
	// disables the timer; the epoch-count trigger still fires).
	SnapshotInterval time.Duration
	// SnapshotEveryEpochs checkpoints after that many landed maintenance
	// epochs (0 → 8).
	SnapshotEveryEpochs int
	// SnapshotRetain is how many committed snapshot generations retention
	// GC keeps (0 → 3).
	SnapshotRetain int
	// TelemetryAddr, when non-empty, starts the live telemetry plane on
	// that address (":9090", "127.0.0.1:0", ...): /metrics in Prometheus
	// text exposition, /healthz and /views JSON, /traces with sampled
	// query lifecycles, and /debug/pprof. Empty keeps everything off — no
	// listener, no goroutines, no hot-path cost.
	TelemetryAddr string
	// TraceSampleEvery samples every Nth query's lifecycle into the trace
	// ring behind /traces (1 = every query). 0 defaults to 16 when
	// TelemetryAddr is set and stays off otherwise; negative forces
	// sampling off even with telemetry on. Sampling also arms causal
	// pipeline tracing: sampled StreamDeltas batches mint a trace ID that
	// follows the delta through group commit, journal append, the
	// maintenance epoch, and per-view refresh into the same /traces ring.
	TraceSampleEvery int
	// FlightDir, when non-empty, is where the SLO flight recorder writes
	// its dump files (flight-<seq>-<reason>.json) when an episode latches:
	// an SLO breach, a circuit breaker opening, a checkpoint error, or
	// recovery-time corruption. Setting it arms the flight recorder even
	// with trace sampling off. Empty with sampling on keeps dumps
	// in-memory only (see Server.FlightDumps). Defaults from the
	// MVPP_FLIGHT_DIR environment variable when unset.
	FlightDir string
	// CostAudit tunes the cost-accountability ledger. Auditing is on by
	// default (set CostAudit.Disable to turn it off): every query class and
	// view carries a §4.1 predicted cost, cache-miss executions and view
	// refreshes record their measured block I/O against it, and calibration
	// drift triggers advisor re-selection.
	CostAudit CostAuditOptions
}

// CostAuditOptions configures the serving layer's predicted-vs-actual cost
// ledger (see Server.CostReport, Server.Explain, and the /costmodel
// telemetry endpoint). The zero value means auditing on with defaults.
type CostAuditOptions struct {
	// Disable turns the ledger off entirely: no predictions, no
	// observations, empty CostReport, no drift-triggered recalibration.
	Disable bool
	// Alpha is the EWMA smoothing factor for calibration ratios in (0, 1]
	// (0 → 0.3).
	Alpha float64
	// DriftBound d flags an entry as drifted when its smoothed calibration
	// ratio leaves [1/d, d] (0 → 2.5).
	DriftBound float64
	// MinSamples is how many observations an entry needs before drift can
	// be flagged (0 → 3).
	MinSamples int
	// SkewPredictions multiplies every registered prediction — a test hook
	// simulating a miscalibrated cost model (0 → 1, no skew).
	SkewPredictions float64
	// SkewViews multiplies only the named views' refresh predictions
	// (recompute and incremental), on top of SkewPredictions — a test hook
	// simulating a cost model whose constants drifted for some operators
	// but not others. Drift precision tests use it to assert that only the
	// genuinely skewed views get flagged.
	SkewViews map[string]float64
}

// defaultTraceSample is the sampling stride when telemetry is on and the
// caller did not choose one.
const defaultTraceSample = 16

// ServeStats is a point-in-time snapshot of the serving counters.
type ServeStats = serve.Stats

// SnapshotStats reports the durable-snapshot plane's state: last
// checkpoint, per-view segment status, and the recovery that booted this
// server.
type SnapshotStats = serve.SnapshotStats

// ViewSnapshotInfo is one view's durable-snapshot status inside
// SnapshotStats.
type ViewSnapshotInfo = serve.ViewSnapshotInfo

// RecoveryStats reports how a snapshot-armed server booted: what was
// restored from segments vs recomputed, and the journal watermark replay
// resumed from.
type RecoveryStats = snapshot.RecoveryStats

// CheckpointResult describes one committed snapshot generation.
type CheckpointResult = snapshot.CheckpointResult

// ViewStaleness reports one maintained view's lag behind ingested deltas.
type ViewStaleness = serve.Staleness

// Advice is the serving advisor's proposal: what the paper's selection
// would materialize for the observed workload.
type Advice = serve.Advice

// QueryTrace is one sampled pipeline lifecycle in the /traces ring: a
// query's admission → cache/execute → reply stages, or (Kind "ingest",
// "epoch", "checkpoint") a write-path operation's causal span tree.
type QueryTrace = serve.QueryTrace

// PipelineSpan is one causal span of a QueryTrace: a timed region of the
// write path (ingest.stream, journal.append, serve.epoch,
// refresh.incremental, ...) linked to its parent span by ID.
type PipelineSpan = serve.PipelineSpan

// ViewLineage is one view's refresh lineage: which epochs over which
// journal LSN ranges produced its current contents, plus the live
// fingerprint of those contents.
type ViewLineage = serve.ViewLineage

// LineageEntry is one epoch's contribution to a view's lineage.
type LineageEntry = serve.LineageEntry

// LatencyExemplar links one serve-latency histogram bucket to a sampled
// trace that landed in it — rendered as OpenMetrics exemplars on
// /metrics.
type LatencyExemplar = serve.LatencyExemplar

// FlightDump is one flight-recorder episode dump: the recent span/event
// ring captured when an SLO breach, breaker trip, checkpoint error, or
// recovery corruption latched.
type FlightDump = obs.FlightDump

// FlightRecord is one span or event inside a FlightDump.
type FlightRecord = obs.FlightRecord

// CostReport is a point-in-time snapshot of the cost-accountability
// ledger: predicted vs measured block costs per query class and view.
type CostReport = costaudit.Report

// CostEntry is one ledger row of a CostReport.
type CostEntry = costaudit.Entry

// QueryResult is one answered query.
type QueryResult struct {
	// Reads is the block-read cost of the execution (0 on a cache hit).
	Reads int64
	// Cached reports whether the result came from the result cache.
	Cached bool
	// Degraded reports that the query was answered from base relations
	// because a materialized view it would normally use is unhealthy (open
	// circuit breaker or staleness bound exceeded). Degraded results are
	// always fresh — they bypass the stale view entirely.
	Degraded bool
	// Epoch is the refresh epoch the result was computed under.
	Epoch uint64
	// Latency is submission-to-answer wall-clock time.
	Latency time.Duration

	table *engine.Table
}

// NumRows returns the result cardinality.
func (r *QueryResult) NumRows() int { return r.table.NumRows() }

// Values converts the result rows to plain Go values (int64, float64,
// string) — a copy, so callers may mutate freely.
func (r *QueryResult) Values() [][]any {
	out := make([][]any, r.table.NumRows())
	for i := range out {
		row := r.table.Row(i)
		vals := make([]any, len(row.Values))
		for c, v := range row.Values {
			switch v.Kind {
			case algebra.TypeInt, algebra.TypeDate:
				vals[c] = v.Int
			case algebra.TypeFloat:
				vals[c] = v.Float
			default:
				vals[c] = v.Str
			}
		}
		out[i] = vals
	}
	return out
}

// Columns returns the result's column names.
func (r *QueryResult) Columns() []string {
	cols := make([]string, r.table.Schema.Len())
	for i, c := range r.table.Schema.Columns {
		cols[i] = c.Name
	}
	return cols
}

// Server runs a finished design as a live warehouse: synthetic data is
// generated at the configured scale, the design's views are materialized,
// and the serving layer (query router + result cache + maintenance
// scheduler + advisor) starts. All methods are safe for concurrent use.
type Server struct {
	d     *Design
	db    *engine.DB
	inner *serve.Server
	scale float64
	seed  atomic.Int64

	// journal is the file journal opened from ServeOptions.JournalPath (nil
	// when the caller supplied their own or none); the Server closes it.
	journal DeltaJournal
	// tele is the telemetry plane (nil when TelemetryAddr was empty); the
	// Server stops it on Close, after the serving layer so late scrapes see
	// "closed" instead of a reset connection.
	tele      *telemetry.Server
	closeOnce sync.Once
	closeErr  error

	// reg instruments the estimators QuerySQL plans with (nil without an
	// observer).
	reg *obs.Registry
}

// NewServer builds the warehouse and starts serving. Close it when done.
func (d *Design) NewServer(opts ServeOptions) (*Server, error) {
	if d.catalog == nil {
		return nil, fmt.Errorf("mvpp: design has no catalog attached")
	}
	scale := opts.Scale
	if scale <= 0 {
		scale = 0.01
	}
	observer := opts.Observer
	if observer == nil {
		observer = d.obsv
	}
	if observer == nil && opts.TelemetryAddr != "" {
		// The telemetry plane serves the registry's counters and gauges;
		// with no observer configured anywhere, give it a metrics-only one
		// so /metrics is populated instead of empty.
		observer = obs.MetricsOnly(nil)
	}

	defaultPolicy, err := serve.ParsePolicy(opts.DefaultPolicy)
	if err != nil {
		return nil, fmt.Errorf("mvpp: default policy: %w", err)
	}

	// Assemble the design's views once for both recovery and the serving
	// layer; vertex order is topological, so views over views compose.
	// Per-view refresh policies resolve ServeOptions.Policies over the
	// design's SetRefreshPolicy tags over DefaultPolicy.
	var viewDefs []snapshot.ViewDef
	var views []serve.ViewSpec
	for _, v := range d.mvpp.Vertices {
		if !d.selection.Materialized[v.ID] {
			continue
		}
		spec := opts.Policies[v.Name]
		if spec == "" {
			spec = d.policies[v.Name]
		}
		policy, err := serve.ParsePolicy(spec)
		if err != nil {
			return nil, fmt.Errorf("mvpp: policy of %s: %w", v.Name, err)
		}
		if spec == "" {
			policy = RefreshPolicy{} // zero → serve's DefaultPolicy
		}
		viewDefs = append(viewDefs, snapshot.ViewDef{Name: v.Name, Plan: v.Op, Policy: spec})
		views = append(views, serve.ViewSpec{
			Name:     v.Name,
			Strategy: d.selection.Plans[v.Name],
			Policy:   policy,
			SLO:      opts.SLOs[v.Name],
		})
	}

	var snapStore *snapshot.Store
	if opts.SnapshotDir != "" {
		st, err := snapshot.Open(opts.SnapshotDir)
		if err != nil {
			return nil, fmt.Errorf("mvpp: opening snapshot store: %w", err)
		}
		st.SetObserver(observer)
		if opts.Injector != nil {
			opts.Injector.SetObserver(observer)
			st.SetInjector(opts.Injector)
		}
		snapStore = st
	}

	// Boot the database: from the newest consistent snapshot when one is
	// armed and usable, otherwise by generating synthetic data and
	// recomputing every view (exactly the snapshotless path).
	cold := func() (*engine.DB, error) { return d.buildSyntheticDB(scale, opts.Seed) }
	prep := func(db *engine.DB) {
		db.SetObserver(observer)
		if opts.Injector != nil {
			opts.Injector.SetObserver(observer)
			db.SetInjector(opts.Injector)
		}
		if snapStore != nil {
			db.SetSnapshotStore(snapStore)
		}
	}
	db, recovery, err := snapshot.Recover(snapStore, cold, prep, viewDefs, d.catalog.inner.Relations(), engine.DefaultBlockRows)
	if err != nil {
		return nil, fmt.Errorf("mvpp: %w", err)
	}
	if snapStore == nil {
		// Without a store the DB is freshly generated: its watermark is 0,
		// and the serving layer replays the whole retained journal.
		recovery = nil
	}

	queries := make([]serve.QuerySpec, 0, len(d.queries))
	for i, q := range d.queries {
		root, ok := d.mvpp.Roots[q.Name]
		if !ok {
			return nil, fmt.Errorf("mvpp: query %s has no root in the MVPP", q.Name)
		}
		queries = append(queries, serve.QuerySpec{Name: q.Name, Plan: inOwnOrder(root.Op, d.bound[i]), Frequency: q.Frequency})
	}

	journal := opts.Journal
	var ownedJournal DeltaJournal
	if opts.JournalPath != "" {
		if journal != nil {
			return nil, fmt.Errorf("mvpp: Journal and JournalPath are mutually exclusive")
		}
		fj, err := engine.OpenFileJournal(opts.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("mvpp: opening delta journal: %w", err)
		}
		if opts.Injector != nil {
			fj.SetInjector(opts.Injector)
		}
		journal = fj
		ownedJournal = fj
	}

	sampleEvery := opts.TraceSampleEvery
	if sampleEvery == 0 && opts.TelemetryAddr != "" {
		sampleEvery = defaultTraceSample
	}
	if sampleEvery < 0 {
		sampleEvery = 0
	}
	flightDir := opts.FlightDir
	if flightDir == "" {
		flightDir = os.Getenv("MVPP_FLIGHT_DIR")
	}

	var ledger *costaudit.Ledger
	if !opts.CostAudit.Disable {
		ledger = costaudit.NewLedger(costaudit.Config{
			Alpha:      opts.CostAudit.Alpha,
			DriftBound: opts.CostAudit.DriftBound,
			MinSamples: opts.CostAudit.MinSamples,
		})
	}

	inner, err := serve.New(serve.Config{
		DB:                  db,
		Queries:             queries,
		Views:               views,
		MVPP:                d.mvpp,
		Model:               d.model,
		Workers:             opts.Workers,
		QueueDepth:          opts.QueueDepth,
		CacheCapacity:       opts.CacheCapacity,
		DeltaBatch:          opts.DeltaBatch,
		Retry:               opts.Retry,
		Breaker:             opts.Breaker,
		DefaultPolicy:       defaultPolicy,
		DefaultSLO:          opts.DefaultSLO,
		Ingest:              opts.Ingest,
		Injector:            opts.Injector,
		Journal:             journal,
		Snapshots:           snapStore,
		SnapshotEveryEpochs: opts.SnapshotEveryEpochs,
		SnapshotInterval:    opts.SnapshotInterval,
		SnapshotRetain:      opts.SnapshotRetain,
		Recovery:            recovery,
		TraceSampleEvery:    sampleEvery,
		FlightDir:           flightDir,
		Obs:                 observer,
		Audit:               ledger,
		AuditSkew:           opts.CostAudit.SkewPredictions,
		AuditSkewViews:      opts.CostAudit.SkewViews,
	})
	if err != nil {
		if ownedJournal != nil {
			ownedJournal.Close()
		}
		return nil, fmt.Errorf("mvpp: %w", err)
	}

	var tele *telemetry.Server
	if opts.TelemetryAddr != "" {
		tele, err = telemetry.Serve(telemetry.Config{
			Addr:     opts.TelemetryAddr,
			Registry: obs.RegistryOf(observer),
			Source:   inner,
		})
		if err != nil {
			inner.Close()
			if ownedJournal != nil {
				ownedJournal.Close()
			}
			return nil, fmt.Errorf("mvpp: %w", err)
		}
	}

	s := &Server{
		d:       d,
		db:      db,
		inner:   inner,
		scale:   scale,
		journal: ownedJournal,
		tele:    tele,
		reg:     obs.RegistryOf(observer),
	}
	s.seed.Store(opts.Seed + 1)
	return s, nil
}

// inOwnOrder returns a query's root plan in the query's own output order.
// Queries that differ only in that order share one MVPP root, since the
// structural key ignores it, and the root's plan is in the first such
// query's order. The root π or γ is then rebuilt over the same input with
// the query's own column list; its structural key, and so the views that
// answer it, stay the same. A root already in order comes back unchanged.
func inOwnOrder(root algebra.Node, q *sqlparse.Query) algebra.Node {
	var own algebra.Node
	switch r := root.(type) {
	case *algebra.Project:
		if len(q.Output) == 0 {
			return root
		}
		own = algebra.NewProject(r.Input, q.Output)
	case *algebra.Aggregate:
		if !q.IsAggregate() {
			return root
		}
		own = algebra.NewAggregate(r.Input, q.GroupBy, q.Aggregates)
	default:
		return root
	}
	if own.Schema().Equal(root.Schema()) {
		return root
	}
	return own
}

// Query answers one named workload query.
func (s *Server) Query(ctx context.Context, name string) (*QueryResult, error) {
	res, err := s.inner.Query(ctx, name)
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// QuerySQL plans and answers an ad-hoc SQL query against the design's
// catalog. Like named queries it runs through the router and profits from
// the materialized views (including predicate subsumption) and the result
// cache; unlike them it does not count toward the advisor's observed
// frequencies.
func (s *Server) QuerySQL(ctx context.Context, sql string) (*QueryResult, error) {
	bound, err := sqlparse.BindQuery(s.d.catalog.inner, "adhoc", sql)
	if err != nil {
		return nil, fmt.Errorf("mvpp: %w", err)
	}
	// A fresh estimator per statement: one kept for the server's lifetime
	// would keep every distinct statement's expression classes and size
	// estimates in its arena and memo for as long.
	est := cost.NewEstimator(s.d.catalog.inner, cost.DefaultOptions())
	est.Instrument(s.reg)
	plan, _, err := optimizer.New(est, s.d.model, optimizer.Options{}).Optimize(bound)
	if err != nil {
		return nil, fmt.Errorf("mvpp: %w", err)
	}
	res, err := s.inner.Submit(ctx, plan)
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

func wrapResult(res *serve.Result) *QueryResult {
	return &QueryResult{
		Reads:    res.Reads,
		Cached:   res.Cached,
		Degraded: res.Degraded,
		Epoch:    res.Epoch,
		Latency:  res.Latency,
		table:    res.Table,
	}
}

// InjectDeltas generates one epoch's worth of synthetic base-table inserts
// (about fraction·rows per table, from the same generators as the initial
// data) and ingests them into the maintenance scheduler as one
// all-or-nothing batch: it returns how many rows were ingested, or 0 and an
// error with nothing journaled or staged. The rows become visible when the
// next maintenance epoch lands (batch filled, timer, or Flush).
func (s *Server) InjectDeltas(fraction float64) (int, error) {
	batch, total, err := s.syntheticBatch(fraction)
	if err != nil {
		return 0, err
	}
	if err := s.inner.IngestBatch(batch); err != nil {
		return 0, err
	}
	return total, nil
}

// StreamDeltas generates one epoch's worth of synthetic base-table inserts
// (like InjectDeltas) but pushes them through the CDC streaming-ingest
// path: the whole batch enters the bounded change feed as one admission,
// commits into the journal as part of one group, and the call returns only
// once it is durable. All-or-nothing: it returns how many rows were
// accepted, or 0 and an error — under sustained overload ErrBackpressure
// (check errors.Is) — with none of the batch journaled or staged.
func (s *Server) StreamDeltas(fraction float64) (int, error) {
	batch, total, err := s.syntheticBatch(fraction)
	if err != nil {
		return 0, err
	}
	if err := s.inner.StreamIngestBatch(batch); err != nil {
		return 0, err
	}
	return total, nil
}

// syntheticBatch draws the next synthetic delta batch: one record per base
// table that gained rows, in catalog order, and the total row count.
func (s *Server) syntheticBatch(fraction float64) ([]DeltaRecord, int, error) {
	if fraction <= 0 {
		return nil, 0, fmt.Errorf("mvpp: delta fraction must be positive")
	}
	rows, total, err := s.d.syntheticDeltaRows(s.db, s.scale, fraction, s.seed.Add(1))
	if err != nil {
		return nil, 0, err
	}
	var batch []DeltaRecord
	for _, name := range s.d.catalog.inner.Relations() {
		if len(rows[name]) > 0 {
			batch = append(batch, DeltaRecord{Table: name, Rows: rows[name]})
		}
	}
	return batch, total, nil
}

// RefreshView forces one maintenance refresh of the named view now,
// regardless of its refresh policy — the way manual-policy views are
// brought up to date.
func (s *Server) RefreshView(name string) error { return s.inner.RefreshView(name) }

// RefreshAllViews forces a full refresh of every maintained view now,
// regardless of policy.
func (s *Server) RefreshAllViews() error { return s.inner.RefreshAllViews() }

// IngestWatermarks reports the CDC change feed's monotone watermarks: the
// last batch sequence accepted into the feed and the last one
// group-committed (journaled and staged). Equal watermarks mean nothing is
// in flight.
func (s *Server) IngestWatermarks() (accepted, committed uint64) {
	return s.inner.IngestWatermarks()
}

// Flush synchronously runs one maintenance epoch over everything ingested
// so far.
func (s *Server) Flush() error { return s.inner.Flush() }

// Epoch returns the current refresh epoch.
func (s *Server) Epoch() uint64 { return s.inner.Epoch() }

// Views returns the currently materialized view names, sorted.
func (s *Server) Views() []string { return s.inner.Views() }

// Staleness reports each maintained view's lag behind ingested deltas.
func (s *Server) Staleness() map[string]ViewStaleness { return s.inner.Staleness() }

// Health reports each maintained view's fault-tolerance status: circuit
// breaker position, consecutive refresh failures, unreflected lag, and
// whether its queries are currently degraded to base relations.
func (s *Server) Health() map[string]ViewHealth { return s.inner.Health() }

// Stats snapshots the serving counters, kept in the observer's registry
// that /metrics renders: servers over one Observer share them.
func (s *Server) Stats() ServeStats { return s.inner.Stats() }

// Checkpoint persists a consistent snapshot generation now: every base
// table plus every healthy, fully-caught-up view, stamped with the
// journal watermark of the last landed epoch, then compacts the delta
// journal and ages out old generations. Returns (nil, nil) when the
// warehouse is mid-epoch — the next trigger after the epoch lands will
// succeed. Errors with serve.ErrNoSnapshots when SnapshotDir was not set.
func (s *Server) Checkpoint() (*CheckpointResult, error) { return s.inner.Checkpoint() }

// SnapshotStats reports the durable-snapshot plane's state: last
// checkpoint, per-view segment status, and the recovery that booted this
// server (nil Recovery when SnapshotDir was not set).
func (s *Server) SnapshotStats() SnapshotStats { return s.inner.SnapshotStats() }

// ObservedFrequencies returns the per-query frequencies the server has
// observed, scaled to the design-time workload volume.
func (s *Server) ObservedFrequencies() map[string]float64 {
	return s.inner.ObservedFrequencies()
}

// Advise re-runs the paper's view selection under the observed query
// frequencies and reports what should change.
func (s *Server) Advise() (*Advice, error) { return s.inner.Advise() }

// AdviseCalibrated re-runs the selection with the observed frequencies
// recalibrated by the cost ledger's per-query calibration ratios, so the
// Figure 9 weights approximate measured rather than predicted cost.
func (s *Server) AdviseCalibrated() (*Advice, error) { return s.inner.AdviseCalibrated() }

// ApplyAdvice hot-swaps the advised view set into the running warehouse.
func (s *Server) ApplyAdvice(a *Advice) error { return s.inner.ApplyAdvice(a) }

// CostReport snapshots the cost-accountability ledger: per query class and
// per view, the §4.1 predicted block cost, last and mean measured actuals,
// the EWMA calibration ratio, sample count, and drift flag. Empty when
// auditing is disabled.
func (s *Server) CostReport() CostReport { return s.inner.CostReport() }

// Explain renders the named workload query's plan as the server would run
// it right now — rewritten over the materialized views — priced per
// operator and annotated with the ledger's observed actuals.
func (s *Server) Explain(name string) (string, error) { return s.inner.Explain(name) }

// LastRecalibration returns the advice produced by the most recent
// drift-triggered re-selection, or nil if no drift has fired.
func (s *Server) LastRecalibration() *Advice { return s.inner.LastRecalibration() }

// Close stops the server. It is idempotent and safe to race with queries
// and ingestion: callers waiting for an execution slot or blocked on
// ingestion are answered with ErrServerClosed, and the query executions
// already running finish before Close returns. Pending
// ingested deltas are not flushed (call Flush first if they must land) but
// journaled deltas survive — a new server over the same journal replays
// them.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		// Serving layer first: from this instant /healthz answers "closed".
		// The telemetry listener stops next, so a scrape racing the close
		// gets the closed answer rather than a hung or reset connection;
		// the journal last, once nothing can append to it.
		s.closeErr = s.inner.Close()
		if s.tele != nil {
			if err := s.tele.Close(); s.closeErr == nil {
				s.closeErr = err
			}
		}
		if s.journal != nil {
			if err := s.journal.Close(); s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// TelemetryAddr returns the telemetry plane's bound listen address (with
// the real port when ServeOptions asked for ":0"), or "" when telemetry is
// off.
func (s *Server) TelemetryAddr() string {
	if s.tele == nil {
		return ""
	}
	return s.tele.Addr()
}

// RecentTraces returns the sampled query traces currently in the /traces
// ring, oldest first — nil when trace sampling is off.
func (s *Server) RecentTraces() []QueryTrace { return s.inner.RecentTraces() }

// Lineage returns every maintained view's refresh lineage: the recent
// epochs, journal LSN ranges, and refresh modes that produced its current
// contents, plus a live fingerprint of those contents. Also served as
// JSON on the telemetry plane's /lineage endpoint.
func (s *Server) Lineage() map[string]ViewLineage { return s.inner.Lineage() }

// FlightDumps returns the retained flight-recorder dumps, oldest first —
// nil when the flight recorder is off (neither trace sampling nor
// FlightDir armed it). Also served on the telemetry plane's /flight
// endpoint.
func (s *Server) FlightDumps() []FlightDump { return s.inner.FlightDumps() }

// LatencyExemplars returns the current latency-histogram exemplars: for
// each serve-latency bucket, a recent sampled trace whose latency landed
// in it. Rendered as OpenMetrics exemplars on /metrics.
func (s *Server) LatencyExemplars() []LatencyExemplar { return s.inner.LatencyExemplars() }
