// Package serve is the warehouse's concurrent serving layer: it takes a
// finished materialized-view design (a set of views stored in an engine.DB
// plus the workload's query plans) and runs it as a live system — many
// client goroutines asking queries while base-table deltas stream in and a
// background scheduler keeps the views fresh.
//
// The package is built from four cooperating pieces:
//
//   - a query router (Submit/Query): a cache miss executes its plan,
//     rewritten over the materialized views, on the caller's goroutine while
//     holding one of a fixed number of execution slots; a caller that finds
//     every slot taken waits for one, and is rejected if its context expires
//     first — admission control;
//   - a result cache, one per served state: an entry is valid while the
//     state it was computed on is served. Each named query owns a slot, so a
//     hit is one atomic load; ad-hoc plans equal to a named query share its
//     slot, others are keyed by their cacheKey, and CLOCK evicts across both;
//   - a maintenance scheduler (Ingest/Flush): delta rows accumulate per
//     base table and, once a batch fills (or Flush is called), one epoch runs —
//     deltas are staged, affected views refresh by their design-time
//     strategy (incremental delta propagation or full recompute), the
//     deltas fold into the base tables, and the next state is published;
//   - an advisor (Advise/ApplyAdvice): observed per-query frequencies are
//     re-fed to the paper's Figure 9 selection, and a proposed new view set
//     can be hot-swapped into the running warehouse.
//
// The serving layer is fault-tolerant: every refresh step retries with
// exponential backoff, a view whose incremental refresh keeps failing falls
// back to full recomputation, a per-view circuit breaker degrades queries
// to the base-relation plan when a view is unhealthy or too stale (with
// half-open probing for recovery), query-execution and scheduler panics are
// recovered, and an optional write-ahead delta journal makes ingestion
// crash-safe — no accepted delta is lost to a crash, before or after the
// epoch that lands it. Faults are injected for testing via internal/fault
// (Config.Injector).
//
// Concurrency: everything a reader needs — epoch number, relation set, the
// named queries' rewritten plans, view health, result cache — is one
// immutable value behind one pointer (served). A reader loads it once and
// takes no lock, but a miss's put and an ad-hoc plan's cache lookup take its
// cache's; everything maintenance-side — epochs, the
// drift check, checkpoints, advice swaps — is one maintainer at a time
// (maintain) and ends by publishing the successor, so an answer comes from
// one whole state, never from a mix.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/costaudit"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/snapshot"
)

// Serving-layer errors.
var (
	// ErrClosed reports a submission to a closed server.
	ErrClosed = errors.New("serve: server is closed")
	// ErrRejected reports that admission control turned the query away: every
	// execution slot was taken and the caller's context ended while it waited
	// for one, or had ended by the time it got one. An execution that has
	// started is never rejected: it runs to completion.
	ErrRejected = errors.New("serve: query rejected")
)

// Defaults for the zero values of Config.
const (
	DefaultWorkers       = 4
	DefaultQueueDepth    = 64
	DefaultCacheCapacity = 256
	DefaultDeltaBatch    = 256
)

// Fixed sizes.
const (
	// DefaultStatsWindow is the rolling-stats window, in seconds, behind the
	// Window* fields of Stats.
	DefaultStatsWindow = 60
	// DefaultTraceRing bounds how many entries RecentTraces returns.
	DefaultTraceRing = 64
)

// QuerySpec is one named workload query the server answers.
type QuerySpec struct {
	Name string
	Plan algebra.Node
	// Frequency is the design-time access frequency fq; the advisor scales
	// observed counts against the sum of these.
	Frequency float64
}

// ViewSpec is one materialized view the server maintains. The view must
// already be materialized in the DB.
type ViewSpec struct {
	Name string
	// Strategy is the design-time maintenance plan: MaintIncremental views
	// refresh by delta propagation, MaintRecompute views by recomputation.
	Strategy core.MaintenanceStrategy
	// Policy decides when the scheduler refreshes the view (manual,
	// on-commit, scheduled, streaming). The zero value takes
	// Config.DefaultPolicy, then on-commit — the legacy behavior.
	Policy RefreshPolicy
	// SLO bounds how far the view may lag before its queries degrade to
	// base-relation plans. The zero value takes Config.DefaultSLO (no SLO
	// when that is zero too).
	SLO FreshnessSLO
}

// Config assembles a Server.
type Config struct {
	// DB is the warehouse: base tables plus the design's materialized
	// views. The server becomes the DB's single maintainer; clients must
	// only read through the server, which serves its own last publication (a
	// change made on the DB behind it is served from the next one). With a
	// Journal, the DB must hold the warehouse as of the boot watermark W —
	// Recovery.Watermark, or 0 (no journaled row at all) without Recovery:
	// New replays every journal record past W into it.
	DB *engine.DB
	// Queries is the named workload.
	Queries []QuerySpec
	// Views is the materialized set and its maintenance strategies.
	Views []ViewSpec
	// MVPP, Model and SelectOpts configure the advisor (optional: without
	// an MVPP and model, Advise returns an error and everything else
	// works).
	MVPP       *core.MVPP
	Model      cost.Model
	SelectOpts core.SelectOptions
	// Workers is how many cache misses may execute at once (default
	// DefaultWorkers). A miss executes on its caller's goroutine while it
	// holds one of these slots.
	Workers int
	// QueueDepth is how many callers may wait for a slot before a newcomer
	// counts as backpressured (default DefaultQueueDepth). It bounds no wait:
	// every caller waits until a slot frees, its context ends, or the server
	// closes.
	QueueDepth int
	// CacheCapacity bounds the result cache in entries (default
	// DefaultCacheCapacity; negative disables caching).
	CacheCapacity int
	// DeltaBatch is how many ingested rows trigger a maintenance epoch
	// (default DefaultDeltaBatch).
	DeltaBatch int
	// Retry bounds the backoff loop around every refresh step; zero values
	// take the defaults.
	Retry RetryPolicy
	// Breaker configures the per-view circuit breaker; zero values take the
	// defaults (StalenessBound 0 disables the staleness trigger).
	Breaker BreakerPolicy
	// DefaultPolicy is the refresh policy for views whose ViewSpec leaves it
	// unset (zero: on-commit).
	DefaultPolicy RefreshPolicy
	// DefaultSLO is the freshness SLO for views whose ViewSpec leaves it
	// unset (zero: no SLO).
	DefaultSLO FreshnessSLO
	// Ingest bounds the CDC streaming path (StreamIngest): buffer bound and
	// backpressure deadline. Zero values take the defaults.
	Ingest IngestConfig
	// Journal, when set, write-ahead-logs every ingested delta batch: rows
	// are journaled before they are buffered, and every record past the boot
	// watermark (see DB) is replayed by New when a server is rebuilt over the
	// same journal after a crash. The caller owns the journal's lifetime (the
	// server never closes it).
	Journal engine.DeltaJournal
	// Injector, when set, arms fault injection at the serving layer's sites
	// (query execution, epoch start). Arm the same injector on the DB via
	// SetInjector to cover the engine sites too. Nil injects nothing.
	Injector *fault.Injector
	// TraceSampleEvery enables trace correlation: every submission gets a
	// query ID and every Nth query (1 = all) records its lifecycle stages
	// into a bounded ring read by RecentTraces, mirroring each stage to
	// Obs as an EvServeQuery event. Zero disables sampling — no IDs are
	// minted and the hot path pays nothing.
	TraceSampleEvery int
	// FlightDir is where flight-recorder dumps are written when an SLO
	// breach, breaker-open, or checkpoint-failure episode latches. Empty
	// keeps dumps in memory only (served by FlightDumps and /flight). The
	// flight recorder's ring, the write path's one trace store, is armed
	// whenever trace sampling is on or FlightDir is set; with both off it is
	// nil and the write path records nothing.
	FlightDir string
	// Obs receives serving events, and its registry holds the serving
	// counters and gauges Stats reads. Nil disables events; the counters
	// then live in a registry of the server's own.
	Obs obs.Observer
	// Audit, when set, is the cost-accountability ledger: predictions are
	// registered for every query class and view at construction and after
	// every advice swap, and every cache-miss execution and view refresh
	// records its measured block I/O. Nil disables auditing.
	Audit *costaudit.Ledger
	// AuditSkew multiplies every registered prediction — a test hook
	// simulating a miscalibrated cost model. 0 means 1 (no skew).
	AuditSkew float64
	// AuditSkewViews multiplies only the named views' refresh predictions
	// (recompute and incremental), on top of AuditSkew — a test hook for
	// per-operator cost-constant drift.
	AuditSkewViews map[string]float64
	// Snapshots, when set, is the durable snapshot store: the server
	// checkpoints base tables and healthy views into it (triggered by epoch
	// count and/or wall-clock interval), compacting the delta journal up to
	// the acked watermark after each commit. Nil disables checkpointing.
	Snapshots *snapshot.Store
	// SnapshotEveryEpochs takes a checkpoint after every N landed
	// maintenance epochs (default DefaultSnapshotEveryEpochs; negative
	// disables the epoch-count trigger).
	SnapshotEveryEpochs int
	// SnapshotInterval, when positive, also checkpoints on a wall-clock
	// timer regardless of epoch activity.
	SnapshotInterval time.Duration
	// SnapshotRetain is how many committed snapshot generations GC keeps
	// (default DefaultSnapshotRetain, minimum 1).
	SnapshotRetain int
	// Recovery, when the DB was built by snapshot.Recover, carries the
	// recovery stats: the server resumes the snapshot's maintenance epoch,
	// seeds per-view staleness from the snapshot commit time, and its
	// Watermark is the boot watermark W the DB holds (see DB): only journal
	// records past it replay.
	Recovery *snapshot.RecoveryStats
}

// Result is one answered query.
type Result struct {
	// Table holds the result rows (an immutable epoch snapshot).
	Table *engine.Table
	// Reads is the block-read cost of the execution (0 on a cache hit).
	Reads int64
	// Cached reports whether the result came from the cache.
	Cached bool
	// Degraded reports that the circuit breaker answered this query from
	// base relations because a materialized view it would have used is
	// unhealthy or beyond its staleness bound. Degraded results are always
	// fresh (they see every applied delta) but cost the paper's Ca(q)
	// instead of the view-assisted cost.
	Degraded bool
	// Epoch is the refresh epoch the result was computed under.
	Epoch uint64
	// Latency is the wall-clock time from submission to answer.
	Latency time.Duration
}

type queryState struct {
	spec QuerySpec
	// slot indexes the query's result-cache slot and its rewritten plan in
	// every served state. The plan never changes after construction (an
	// advisor swap changes the views it is rewritten over, not the plan), so
	// its cacheKey is derived once, by New, and named queries with equal keys
	// share a slot.
	slot     int
	observed atomic.Int64
}

// served is everything a reader needs, as of one publication. It is
// immutable but for its cache; publish builds each one and is the only store
// to Server.state, so the parts can never disagree.
type served struct {
	epoch uint64 // counts publications
	rels  *engine.RelationSet
	// plans holds every slot's plan rewritten over rels' view set, indexed
	// by slot and shared with the predecessor while the view-set generation
	// stands.
	plans []*engine.RewrittenPlan
	// health lists the views whose queries degrade to base relations now, or
	// will before the next publication; empty on a healthy warehouse.
	health map[string]viewHealth
	// pricer prices plans against rels' statistics for the cost audit; built
	// with plans, nil when auditing is off.
	pricer *costaudit.Pricer
	cache  *resultCache    // results computed on rels, nothing else
	link   *epochTraceLink // the publishing epoch's pipeline trace; nil from New or a swap
}

// viewHealth is when queries over a view degrade: already, or once the wall
// clock passes breachAt (the view lags under a MaxLag SLO).
type viewHealth struct {
	degraded bool
	breachAt time.Time
}

// publish builds the successor of the served state and makes it what readers
// see, in one store: the only one. Caller is New or the maintainer; health is
// the registry's as of now (healthLocked).
func (s *Server) publish(epoch uint64, rels *engine.RelationSet, health map[string]viewHealth, link *epochTraceLink) {
	st := &served{epoch: epoch, rels: rels, health: health, link: link,
		cache: newResultCache(s.cacheCap, len(s.slotPlans))}
	if prev := s.state.Load(); prev != nil && prev.rels.Generation() == rels.Generation() {
		st.plans, st.pricer = prev.plans, prev.pricer
	} else {
		st.plans = make([]*engine.RewrittenPlan, len(s.slotPlans))
		for slot, plan := range s.slotPlans {
			pp := rels.Rewrite(plan)
			st.plans[slot] = &pp
		}
		s.stats.planRewrites.Add(int64(len(s.slotPlans)))
		st.pricer = s.repriceAudit(st)
	}
	s.state.Store(st)
	s.snapBehind = true
}

// degradedAmong lists the views among the given ones (the views a rewritten
// plan scans, sorted) whose queries must degrade right now.
func (st *served) degradedAmong(views []string) (out []string) {
	if len(st.health) == 0 {
		return nil
	}
	for _, name := range views {
		if h, ok := st.health[name]; ok && (h.degraded || time.Now().After(h.breachAt)) {
			out = append(out, name)
		}
	}
	return out
}

// Server is the running serving layer. Create with New, stop with Close.
// All exported methods are safe for concurrent use. Every field is one of
// three kinds: configuration, fixed by New (the values behind it — counters,
// rings, the ledger, the scheduler, the feed — synchronize themselves);
// maintainer-owned, touched only inside maintain; or published, an atomic
// pointer to an immutable value that the maintainer replaces and anyone loads.
type Server struct {
	// Configuration.
	db      *engine.DB
	queries map[string]*queryState
	order   []string
	// slotOf maps a named query's cacheKey to its slot, so an ad-hoc plan
	// equal to a named query shares that query's cache entry and rewrite;
	// slotPlans holds each slot's plan.
	slotOf    map[string]int
	slotPlans []algebra.Node

	mvpp       *core.MVPP // read-only: the Design and its other servers share it
	model      cost.Model
	selectOpts core.SelectOptions

	cacheCap int

	// slots is the router's admission semaphore, one token per miss
	// executing (Config.Workers of them); waiting counts the callers blocked
	// for a token, and past queueDepth of them a newcomer is backpressured.
	slots      chan struct{}
	waiting    atomic.Int64
	queueDepth int64
	closed     chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup // the scheduler loop
	// baseCtx is cancelled by Close so retry backoff sleeps abort promptly.
	baseCtx context.Context
	cancel  context.CancelFunc

	inj   *fault.Injector
	retry RetryPolicy

	sched *scheduler
	// feed is the CDC streaming front-end (StreamIngest); always present,
	// sized by Config.Ingest.
	feed *changeFeed

	// Cost accountability (audit nil when auditing is off — every call
	// site no-ops).
	audit          *costaudit.Ledger
	auditSkew      float64
	auditSkewViews map[string]float64

	start time.Time
	stats serverStats

	// Windowed aggregation: rolling per-second rings answering "what
	// happened over the last DefaultStatsWindow seconds".
	winQueries     *obs.WindowCounter
	winHits        *obs.WindowCounter
	winRefreshFail *obs.WindowCounter
	winLat         *obs.WindowHist

	// Trace correlation (nil/0 when Config.TraceSampleEvery is 0).
	// queryRing holds sampled queries' /traces entries; nextEntry numbers
	// the entries of both rings.
	nextQueryID atomic.Uint64
	traceEvery  uint64
	queryRing   *obs.Ring
	nextEntry   atomic.Uint64
	// nextIngestID numbers StreamIngest calls for write-path sampling
	// (same stride as query sampling).
	nextIngestID atomic.Uint64
	// writeRing is the always-on record of the write path: every span and
	// retry event, and the write-path /traces entries. It and flight, which
	// dumps it, are nil when tracing is off and no FlightDir is set.
	// exemplars links latency buckets to sampled trace IDs (nil when
	// sampling is off).
	writeRing *obs.Ring
	flight    *obs.FlightRecorder
	exemplars *exemplarSet

	// Durable snapshots (snap nil when checkpointing is off); recovery is how
	// this server booted (nil without recovery).
	snap            *snapshot.Store
	snapEveryEpochs int
	snapRetain      int
	recovery        *snapshot.RecoveryStats

	obsv obs.Observer

	// maintMu admits one maintainer at a time, honoring the engine's
	// one-maintainer contract. Only maintain takes it.
	maintMu sync.Mutex

	// Maintainer-owned: touched only inside maintain (and by New, before
	// anything runs). jrng is the seeded jitter source of retry backoff;
	// recalHandled latches the drift episodes already re-selected for;
	// snapEpoch is the epoch the epoch-count trigger last fired at;
	// snapBehind says a state was published since the last committed
	// checkpoint (a flag, not that state: holding a superseded state would
	// keep its whole relation set alive).
	jrng         *rand.Rand
	recalHandled map[string]bool
	snapEpoch    uint64
	snapBehind   bool

	// Published: state is what readers are answered from (see served),
	// snapStats the checkpoint bookkeeping behind SnapshotStats, lastRecal
	// the advice of the last drift-triggered re-selection.
	state     atomic.Pointer[served]
	snapStats atomic.Pointer[SnapshotStats]
	lastRecal atomic.Pointer[Advice]
}

// maintain runs f as the maintainer — the one writer of the engine, the view
// registry's refresh outcomes and the served state. Every maintenance entry
// point (Flush, RefreshView, RefreshAllViews, the scheduler's loop,
// Checkpoint, ApplyAdvice) goes through it and waits for its turn; the steps
// inside a turn call each other's locked bodies, never the public methods
// (the mutex is not re-entrant).
func (s *Server) maintain(f func() error) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return f()
}

// serverStats is every serving counter and gauge, resolved once from the
// server's registry — the observer's, or a private one without an observer
// — so each fact is counted in one place: Stats reads these counters and
// /metrics renders the same ones. The two histograms feed Stats and the
// telemetry plane's latency and lag families.
type serverStats struct {
	queries, hits, misses, rejected, backpressured *obs.Counter
	epochs, incRefreshes, recomputes, deltaRows    *obs.Counter
	refreshReads, refreshWrites                    *obs.Counter
	retries, refreshFailures, fallbacks            *obs.Counter
	breakerTrips, degraded, panics, replayedRows   *obs.Counter
	costObservations, costDrifts, recalibrations   *obs.Counter
	streamRows, streamGroups                       *obs.Counter
	streamShed, streamBlocked                      *obs.Counter
	sloViolations, checkpointDeclined              *obs.Counter
	flightDumps, planRewrites                      *obs.Counter

	queueDepth, staleRows, unhealthy *obs.Gauge
	snapBytes, snapGen, ingestBuffer *obs.Gauge

	lat obs.Hist
	// streamLag is the accepted→group-committed latency of streamed rows.
	streamLag obs.Hist
}

// resolve looks every counter and gauge up in reg.
func (st *serverStats) resolve(reg *obs.Registry) {
	for p, name := range map[**obs.Counter]string{
		&st.queries: obs.CtrServeQueries, &st.hits: obs.CtrServeCacheHits,
		&st.misses: obs.CtrServeCacheMisses, &st.rejected: obs.CtrServeRejected,
		&st.backpressured: obs.CtrServeBackpressured, &st.epochs: obs.CtrServeEpochs,
		&st.incRefreshes: obs.CtrServeIncrementalRefreshes, &st.recomputes: obs.CtrServeRecomputes,
		&st.deltaRows: obs.CtrServeDeltaRows, &st.refreshReads: obs.CtrServeRefreshReads,
		&st.refreshWrites: obs.CtrServeRefreshWrites, &st.retries: obs.CtrServeRetries,
		&st.refreshFailures: obs.CtrServeRefreshFailures, &st.fallbacks: obs.CtrServeFallbacks,
		&st.breakerTrips: obs.CtrServeBreakerTrips, &st.degraded: obs.CtrServeDegraded,
		&st.panics: obs.CtrServePanics, &st.replayedRows: obs.CtrServeReplayedRows,
		&st.costObservations: obs.CtrCostObservations, &st.costDrifts: obs.CtrCostDrifts,
		&st.recalibrations: obs.CtrServeRecalibrations, &st.streamRows: obs.CtrServeStreamRows,
		&st.streamGroups: obs.CtrServeStreamGroups, &st.streamShed: obs.CtrServeStreamShed,
		&st.streamBlocked: obs.CtrServeStreamBlocked, &st.sloViolations: obs.CtrServeSLOViolations,
		&st.checkpointDeclined: obs.CtrServeCheckpointDeclined, &st.flightDumps: obs.CtrServeFlightDumps,
		&st.planRewrites: obs.CtrServePlanRewrites,
	} {
		*p = reg.Counter(name)
	}
	for p, name := range map[**obs.Gauge]string{
		&st.queueDepth: obs.GaugeServeQueueDepth, &st.staleRows: obs.GaugeServeStaleRows,
		&st.unhealthy: obs.GaugeServeUnhealthyViews, &st.snapBytes: obs.GaugeSnapshotBytes,
		&st.snapGen: obs.GaugeSnapshotGeneration, &st.ingestBuffer: obs.GaugeServeIngestBufferRows,
	} {
		*p = reg.Gauge(name)
	}
}

// New builds and starts a server: it answers queries, and the maintenance
// scheduler begins running, immediately. When Config.Journal holds delta
// batches past the boot watermark (see Config.DB), they are re-ingested
// before serving starts and land with the first epoch.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.sched.loop(cfg.SnapshotInterval)
	return s, nil
}

// newServer assembles a server without starting the scheduler loop.
func newServer(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("serve: config needs a DB")
	}
	workers, queueDepth := cfg.Workers, cfg.QueueDepth
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	s := &Server{
		db:         cfg.DB,
		queries:    make(map[string]*queryState, len(cfg.Queries)),
		slotOf:     make(map[string]int, len(cfg.Queries)),
		mvpp:       cfg.MVPP,
		model:      cfg.Model,
		selectOpts: cfg.SelectOpts,
		cacheCap:   cfg.CacheCapacity,
		slots:      make(chan struct{}, workers),
		queueDepth: int64(queueDepth),
		closed:     make(chan struct{}),
		inj:        cfg.Injector,
		retry:      cfg.Retry.withDefaults(),
		jrng:       rand.New(rand.NewSource(1)),
		start:      time.Now(),
		obsv:       cfg.Obs,

		audit:          cfg.Audit,
		auditSkew:      cfg.AuditSkew,
		auditSkewViews: cfg.AuditSkewViews,
		recalHandled:   make(map[string]bool),

		snap:            cfg.Snapshots,
		snapEveryEpochs: cfg.SnapshotEveryEpochs,
		snapRetain:      cfg.SnapshotRetain,
		recovery:        cfg.Recovery,
	}
	if s.auditSkew <= 0 {
		s.auditSkew = 1
	}
	if s.snapEveryEpochs == 0 {
		s.snapEveryEpochs = DefaultSnapshotEveryEpochs
	}
	if s.snapRetain < 1 {
		s.snapRetain = DefaultSnapshotRetain
	}
	reg := obs.RegistryOf(cfg.Obs)
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.stats.resolve(reg)
	s.snapStats.Store(&SnapshotStats{Configured: s.snap != nil, Recovery: s.recovery})
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.winQueries = obs.NewWindowCounter(DefaultStatsWindow)
	s.winHits = obs.NewWindowCounter(DefaultStatsWindow)
	s.winRefreshFail = obs.NewWindowCounter(DefaultStatsWindow)
	s.winLat = obs.NewWindowHist(DefaultStatsWindow)
	if cfg.TraceSampleEvery > 0 {
		s.traceEvery = uint64(cfg.TraceSampleEvery)
		s.queryRing = obs.NewRing()
		s.exemplars = &exemplarSet{}
	}
	if cfg.TraceSampleEvery > 0 || cfg.FlightDir != "" {
		s.writeRing = obs.NewRing()
		s.flight = obs.NewFlightRecorder(s.writeRing, cfg.FlightDir)
	}
	for _, q := range cfg.Queries {
		if q.Name == "" || q.Plan == nil {
			return nil, errors.New("serve: query specs need a name and a plan")
		}
		if _, dup := s.queries[q.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate query %q", q.Name)
		}
		key := cacheKey(q.Plan)
		slot, ok := s.slotOf[key]
		if !ok {
			slot = len(s.slotPlans)
			s.slotOf[key] = slot
			s.slotPlans = append(s.slotPlans, q.Plan)
		}
		s.queries[q.Name] = &queryState{spec: q, slot: slot}
		s.order = append(s.order, q.Name)
	}
	sched, err := newScheduler(s, cfg)
	if err != nil {
		return nil, err
	}
	s.sched = sched
	s.feed = newChangeFeed(s, cfg.Ingest)

	// A server booted from a snapshot resumes the snapshot's maintenance
	// epoch (result epochs and per-view staleness stay monotonic across the
	// restart) and seeds every view's refresh bookkeeping from the snapshot
	// commit — restored and recomputed views alike are current as of
	// recovery.
	var epoch uint64
	if r := cfg.Recovery; r != nil && !r.Cold {
		epoch = r.SnapshotEpoch
		s.snapEpoch = r.SnapshotEpoch
		sched.mu.Lock()
		// The first post-recovery epoch's lineage covers the journal suffix
		// past the snapshot watermark — not LSN 0.
		sched.ackedLSN = r.Watermark
		for name, vs := range sched.views {
			vs.epoch = r.SnapshotEpoch
			vs.lastRefresh = r.SnapshotCreatedAt
			// Restored views seed their lineage from the manifest's lineage
			// watermark; recomputed views start a fresh lineage with the
			// recovery itself as the first entry.
			if mark, ok := r.ViewLineage[name]; ok {
				vs.lineage = append(vs.lineage, LineageEntry{
					Epoch: mark.Epoch, LSNLo: mark.LSN, LSNHi: mark.LSN,
					Mode: "restored", Fingerprint: mark.Fingerprint,
					At: r.SnapshotCreatedAt,
				})
			} else {
				vs.lineage = append(vs.lineage, LineageEntry{
					Epoch: r.SnapshotEpoch, LSNLo: r.Watermark, LSNHi: r.Watermark,
					Mode: "recovered-recompute", At: r.SnapshotCreatedAt,
				})
			}
		}
		sched.mu.Unlock()
	}
	// The first publication. Every view starts without debt: no health to list.
	s.publish(epoch, s.db.Relations(), nil, nil)
	if r := cfg.Recovery; r != nil && r.CorruptArtifacts > 0 {
		// Checkpoint-corruption episode: recovery had to fall back past
		// corrupt artifacts. Latch one forensic dump for the postmortem.
		s.dumpFlight("recovery_corruption",
			obs.Int("corrupt_artifacts", int64(r.CorruptArtifacts)),
			obs.Int("generation", int64(r.Generation)))
	}

	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	return s, nil
}

// Query answers one named workload query and records the access for the
// advisor's observed frequencies.
func (s *Server) Query(ctx context.Context, name string) (*Result, error) {
	qs, ok := s.queries[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown query %q", name)
	}
	qs.observed.Add(1)
	return s.submit(ctx, name, qs.spec.Plan, cacheRef{slot: qs.slot})
}

// Submit answers an ad-hoc plan: from the cache, or by executing the plan
// rewritten over the current materialized views on the caller's goroutine,
// in one of Config.Workers execution slots. A caller that finds every slot
// taken waits for one until a slot frees, ctx ends (ErrRejected) or the
// server closes (ErrClosed); ctx bounds only that wait. Submitting to a
// closed server returns ErrClosed.
func (s *Server) Submit(ctx context.Context, plan algebra.Node) (*Result, error) {
	key := cacheKey(plan)
	if slot, ok := s.slotOf[key]; ok {
		return s.submit(ctx, "", plan, cacheRef{slot: slot})
	}
	return s.submit(ctx, "", plan, cacheRef{slot: -1, key: key})
}

// cacheKey is a plan's result-cache key: its structural key, which ignores
// projection order and join orientation, then its output columns in order,
// which an answer must keep.
func cacheKey(plan algebra.Node) string {
	return algebra.StructuralKey(plan) + " → " + plan.Schema().String()
}

// submit is the admission path behind Query and Submit; name labels the
// workload query for trace correlation ("" for ad-hoc plans) and ref names
// the plan's result-cache entry.
func (s *Server) submit(ctx context.Context, name string, plan algebra.Node, ref cacheRef) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.closed:
		return nil, ErrClosed
	default:
	}
	start := time.Now()
	nowSec := start.Unix()
	s.stats.queries.Add(1)
	s.winQueries.Add(nowSec, 1)

	var qt sampledQuery
	if s.queryRing != nil {
		id := s.nextQueryID.Add(1)
		if (id-1)%s.traceEvery == 0 {
			qt = sampledQuery{id: id, traceID: obs.NewTraceContext().TraceID}
			qt.entry = s.openEntry(s.queryRing, "query", id, obs.SpanContext{TraceID: qt.traceID}, name)
			s.traceStage(qt, "admit", obs.String("query", name))
		}
	}

	st := s.state.Load()
	if table, ok := st.cache.get(ref); ok {
		s.stats.hits.Add(1)
		s.winHits.Add(nowSec, 1)
		lat := time.Since(start)
		s.stats.lat.Record(lat)
		s.winLat.Record(nowSec, lat)
		// The guard keeps an unsampled hit from building the stages'
		// attributes: they escape to the heap even when traceStage drops them.
		if qt.entry != 0 {
			s.joinEpochTrace(qt, st, true, 0)
			s.exemplars.record(lat, qt.traceID, qt.id)
			s.traceStage(qt, "cache_hit", obs.Int("epoch", int64(st.epoch)))
			s.traceStage(qt, "reply",
				obs.Bool("cached", true), obs.Int("latency_us", lat.Microseconds()))
		}
		return &Result{Table: table, Cached: true, Epoch: st.epoch, Latency: lat}, nil
	}
	s.stats.misses.Add(1)
	s.traceStage(qt, "cache_miss")

	if err := s.acquire(ctx); err != nil {
		if errors.Is(err, ErrRejected) {
			s.stats.rejected.Add(1)
			if qt.entry != 0 {
				s.traceStage(qt, "reply", obs.String("outcome", "rejected"))
			}
		}
		return nil, err
	}
	res, err := s.execute(plan, ref, name, qt)
	if err != nil {
		if qt.entry != 0 {
			s.traceStage(qt, "reply", obs.String("outcome", "error"),
				obs.String("error", err.Error()))
		}
		return nil, err
	}
	end := time.Now()
	res.Latency = end.Sub(start)
	s.stats.lat.Record(res.Latency)
	s.winLat.Record(end.Unix(), res.Latency)
	if qt.entry != 0 {
		s.exemplars.record(res.Latency, qt.traceID, qt.id)
		s.traceStage(qt, "reply",
			obs.Bool("cached", false),
			obs.Bool("degraded", res.Degraded),
			obs.Int("epoch", int64(res.Epoch)),
			obs.Int("latency_us", res.Latency.Microseconds()))
	}
	return res, nil
}

// acquire takes an execution slot for a miss. A caller that finds every
// slot taken waits for one until a slot frees, its context ends
// (ErrRejected) or the server closes (ErrClosed). A caller whose context has
// ended by the time it holds a slot gives the slot back unexecuted
// (ErrRejected).
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
	default:
		n := s.waiting.Add(1)
		if n > s.queueDepth {
			s.stats.backpressured.Add(1)
		}
		s.stats.queueDepth.Set(float64(n))
		var err error
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			err = fmt.Errorf("%w: %v", ErrRejected, ctx.Err())
		case <-s.closed:
			err = ErrClosed
		}
		s.stats.queueDepth.Set(float64(s.waiting.Add(-1)))
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		<-s.slots
		return fmt.Errorf("%w: %v", ErrRejected, err)
	}
	return nil
}

// execute answers one admitted miss on the served state, on the caller's
// goroutine, and gives back the slot acquire took however it ends. ref names
// the cache entry the result goes into and, for a cache slot, the rewrite;
// name is the workload query class ("" for an ad-hoc plan), whose measured
// I/O the cost ledger records; qt is the sampled query's /traces entry (zero
// when unsampled).
func (s *Server) execute(plan algebra.Node, ref cacheRef, name string, qt sampledQuery) (res *Result, err error) {
	// A panicking execution (injected or real) is answered as an error and
	// frees its slot too: the slots are the serving capacity.
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			res, err = nil, fmt.Errorf("serve: query worker recovered from panic: %v", r)
		}
		<-s.slots
	}()
	if err := s.inj.Hit(fault.SiteServeWorker); err != nil {
		return nil, err
	}
	// One state per miss: epoch number, rewrite, view health, rows and the
	// cache the result goes into belong to one publication. A slot's rewrite
	// came with it; any other ad-hoc plan is rewritten per call — a memo keyed
	// by caller-supplied plans would have no bound.
	st := s.state.Load()
	var pp *engine.RewrittenPlan
	if ref.slot >= 0 {
		pp = st.plans[ref.slot]
	} else {
		s.stats.planRewrites.Add(1)
		adhoc := st.rels.Rewrite(plan)
		pp = &adhoc
	}
	run := pp.Plan
	degraded := false
	if names := st.degradedAmong(pp.Views); len(names) > 0 {
		// Circuit breaker: the rewritten plan reads a view that is unhealthy
		// or beyond its staleness bound. Answer from the original plan over
		// base relations — always fresh, at the paper's Ca(q) cost.
		run = plan
		degraded = true
		s.stats.degraded.Add(1)
		obs.Emit(s.obsv, obs.EvServeDegraded, obs.String("views", strings.Join(names, ",")))
		if qt.entry != 0 {
			s.traceStage(qt, "degraded", obs.String("views", strings.Join(names, ",")))
		}
	}
	out, err := st.rels.Execute(run)
	if err != nil {
		return nil, err
	}
	if qt.entry != 0 {
		attrs := []obs.Attr{obs.Int("reads", out.TotalReads()), obs.Int("epoch", int64(st.epoch))}
		if ptid := s.joinEpochTrace(qt, st, false, out.TotalReads()); ptid != 0 {
			attrs = append(attrs, obs.Int("pipeline_trace_id", int64(ptid)))
		}
		s.traceStage(qt, "execute", attrs...)
	}
	if !degraded && name != "" {
		// Record the measured I/O against the query class's predicted cost.
		// Degraded executions ran the base-relation plan, which the
		// registered prediction does not price — they are skipped.
		s.observeAudit(costaudit.KindQuery, name, out.TotalReads()+out.TotalWrites())
	}
	// The result goes into the cache of the state it was computed on, which a
	// later publication leaves behind. Degraded results are not cached: an
	// entry always carries the view-based answer.
	if !degraded {
		st.cache.put(ref, out.Table)
	}
	return &Result{Table: out.Table, Reads: out.TotalReads(), Epoch: st.epoch, Degraded: degraded}, nil
}

// Epoch returns the served state's epoch (0 before any maintenance ran).
func (s *Server) Epoch() uint64 { return s.state.Load().epoch }

// Close stops the server: the scheduler halts, callers waiting for an
// execution slot wake with ErrClosed, the executions already running finish
// (Close waits for them), and further submissions fail with ErrClosed. Close
// is idempotent and safe to race with in-flight Query/Submit/Ingest calls.
// Close does not run a final maintenance epoch; call Flush first if
// ingested deltas must land (with a journal configured, unlanded deltas are
// replayed by the next server instead).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		// Drain the CDC change feed first, while ingestion is still open: the
		// final partial group is journaled and staged, every parked
		// StreamIngest caller gets its outcome, and blocked callers wake with
		// ErrClosed. Nothing accepted by the feed is ever dropped.
		s.feed.shutdown()
		close(s.closed)
		s.cancel()
		s.wg.Wait()
		// Wait out the executions running: take every slot, and keep them.
		for range cap(s.slots) {
			s.slots <- struct{}{}
		}
	})
	return nil
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	// Queries is every submission (cache hits included); CacheHits and
	// CacheMisses split them; Rejected counts admission-control failures
	// and Backpressured counts misses that found every execution slot taken
	// and QueueDepth callers already waiting.
	Queries, CacheHits, CacheMisses, Rejected, Backpressured int64
	// Epochs counts maintenance epochs; IncrementalRefreshes and
	// Recomputes count per-view refreshes by strategy within them;
	// DeltaRows counts ingested rows; RefreshReads/RefreshWrites is the
	// block I/O the refreshes spent.
	Epochs, IncrementalRefreshes, Recomputes, DeltaRows int64
	RefreshReads, RefreshWrites                         int64
	// Retries counts refresh attempts repeated after a transient failure;
	// RefreshFailures counts refreshes that stayed failed after retrying;
	// IncrementalFallbacks counts incremental refreshes that persistently
	// failed and fell back to full recomputation.
	Retries, RefreshFailures, IncrementalFallbacks int64
	// BreakerTrips counts circuit breakers opening (half-open probes that
	// fail re-trip and count again); DegradedQueries counts queries
	// answered from base relations because a view was unhealthy.
	BreakerTrips, DegradedQueries int64
	// PanicsRecovered counts panics caught in query executions and refreshes;
	// ReplayedDeltaRows counts journal rows re-ingested at startup.
	PanicsRecovered, ReplayedDeltaRows int64
	// CostObservations counts actuals recorded in the cost ledger;
	// CostDrifts counts ledger entries newly flagged as drifted;
	// Recalibrations counts drift-triggered advisor re-selections.
	CostObservations, CostDrifts, Recalibrations int64
	// StreamRows counts rows group-committed through the CDC streaming path
	// (StreamIngest); StreamGroups counts the group commits that carried
	// them; StreamShed counts calls shed with ErrBackpressure after the
	// block deadline; StreamBlocked counts calls that had to block on the
	// full feed buffer (shed or not).
	StreamRows, StreamGroups, StreamShed, StreamBlocked int64
	// SLOViolations counts freshness-SLO violation episodes (a view
	// entering the violated state; recovery and re-violation count again).
	SLOViolations int64
	// FlightDumps counts flight-recorder dumps latched by episodes (SLO
	// breach, breaker open, checkpoint failure, recovery corruption).
	FlightDumps int64
	// PlanRewrites counts view rewrites of a query plan: one per distinct
	// named-query plan per view-set generation published, one per miss of an
	// ad-hoc plan that equals no named query.
	PlanRewrites int64
	// IngestLagP50/P95/P99 are accepted→group-committed latency quantiles
	// of streamed rows.
	IngestLagP50, IngestLagP95, IngestLagP99 time.Duration
	// IngestBufferedRows is the change feed's current occupancy.
	IngestBufferedRows int
	// QueueDepth is the number of callers waiting for an execution slot now;
	// CacheEntries is the result cache's occupancy.
	QueueDepth, CacheEntries int
	// Uptime is time since New; QPS is Queries/Uptime.
	Uptime time.Duration
	QPS    float64
	// P50/P95/P99 are submission-to-answer latency quantiles (upper bucket
	// bounds of a power-of-two histogram).
	P50, P95, P99 time.Duration
	// WindowSeconds is the rolling-stats window length; the Window* fields
	// below aggregate over the trailing window only.
	WindowSeconds int
	// WindowQueries/WindowCacheHits/WindowRefreshFailures count events in
	// the window; WindowQPS and WindowRefreshFailuresPerSec are their
	// per-second rates and WindowHitRate is hits/queries in [0,1].
	WindowQueries, WindowCacheHits, WindowRefreshFailures int64
	WindowQPS, WindowRefreshFailuresPerSec, WindowHitRate float64
	// WindowP50/P95/P99 are latency quantiles over the window only.
	WindowP50, WindowP95, WindowP99 time.Duration
}

// CacheHitRate returns CacheHits/Queries in [0,1].
func (st Stats) CacheHitRate() float64 {
	if st.Queries == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(st.Queries)
}

// Stats snapshots the serving counters. They live in the observer's
// registry (the server's own without an observer), so /metrics renders the
// same values; servers built over one observer share them.
func (s *Server) Stats() Stats {
	up := time.Since(s.start)
	lat, lag := s.stats.lat.Snapshot(), s.stats.streamLag.Snapshot()
	st := Stats{
		Queries:              s.stats.queries.Value(),
		CacheHits:            s.stats.hits.Value(),
		CacheMisses:          s.stats.misses.Value(),
		Rejected:             s.stats.rejected.Value(),
		Backpressured:        s.stats.backpressured.Value(),
		Epochs:               s.stats.epochs.Value(),
		IncrementalRefreshes: s.stats.incRefreshes.Value(),
		Recomputes:           s.stats.recomputes.Value(),
		DeltaRows:            s.stats.deltaRows.Value(),
		RefreshReads:         s.stats.refreshReads.Value(),
		RefreshWrites:        s.stats.refreshWrites.Value(),
		Retries:              s.stats.retries.Value(),
		RefreshFailures:      s.stats.refreshFailures.Value(),
		IncrementalFallbacks: s.stats.fallbacks.Value(),
		BreakerTrips:         s.stats.breakerTrips.Value(),
		DegradedQueries:      s.stats.degraded.Value(),
		PanicsRecovered:      s.stats.panics.Value(),
		ReplayedDeltaRows:    s.stats.replayedRows.Value(),
		CostObservations:     s.stats.costObservations.Value(),
		CostDrifts:           s.stats.costDrifts.Value(),
		Recalibrations:       s.stats.recalibrations.Value(),
		StreamRows:           s.stats.streamRows.Value(),
		StreamGroups:         s.stats.streamGroups.Value(),
		StreamShed:           s.stats.streamShed.Value(),
		StreamBlocked:        s.stats.streamBlocked.Value(),
		SLOViolations:        s.stats.sloViolations.Value(),
		FlightDumps:          s.stats.flightDumps.Value(),
		PlanRewrites:         s.stats.planRewrites.Value(),
		IngestLagP50:         lag.Quantile(0.50),
		IngestLagP95:         lag.Quantile(0.95),
		IngestLagP99:         lag.Quantile(0.99),
		QueueDepth:           int(s.waiting.Load()),
		CacheEntries:         s.state.Load().cache.len(),
		IngestBufferedRows:   s.feed.buffered(),
		Uptime:               up,
		P50:                  lat.Quantile(0.50),
		P95:                  lat.Quantile(0.95),
		P99:                  lat.Quantile(0.99),
	}
	if up > 0 {
		st.QPS = float64(st.Queries) / up.Seconds()
	}
	nowSec := time.Now().Unix()
	st.WindowSeconds = s.winQueries.WindowSeconds()
	st.WindowQueries = s.winQueries.Total(nowSec)
	st.WindowCacheHits = s.winHits.Total(nowSec)
	st.WindowRefreshFailures = s.winRefreshFail.Total(nowSec)
	st.WindowQPS = s.winQueries.Rate(nowSec)
	st.WindowRefreshFailuresPerSec = s.winRefreshFail.Rate(nowSec)
	if st.WindowQueries > 0 {
		st.WindowHitRate = float64(st.WindowCacheHits) / float64(st.WindowQueries)
	}
	snap := s.winLat.Snapshot(nowSec)
	st.WindowP50 = snap.Quantile(0.50)
	st.WindowP95 = snap.Quantile(0.95)
	st.WindowP99 = snap.Quantile(0.99)
	return st
}

// LatencySnapshot exports the all-time submission-to-answer latency
// histogram (power-of-two buckets, count, summed nanoseconds) — the
// telemetry plane renders it as a cumulative Prometheus histogram.
func (s *Server) LatencySnapshot() obs.HistSnapshot { return s.stats.lat.Snapshot() }

// WindowLatencySnapshot exports the rolling-window latency histogram.
func (s *Server) WindowLatencySnapshot() obs.HistSnapshot {
	return s.winLat.Snapshot(time.Now().Unix())
}

// IsClosed reports whether Close has begun. It flips true the instant the
// server starts shutting down — before the drain finishes — so health
// endpoints can answer "closed" instead of hanging behind the drain.
func (s *Server) IsClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// tracingArmed reports whether the write path should mint span contexts:
// the write ring is live. With it off, every propagation site skips context
// minting entirely.
func (s *Server) tracingArmed() bool { return s.writeRing != nil }

// epochTraceLink joins sampled queries to the pipeline trace of the epoch
// whose contents they read. A traced epoch publishes one with its state; the
// first sampled query that reads the state records a query.read span into
// the epoch's span tree, completing the delta's causal chain (ingest → group
// commit → journal → epoch → refresh → query hit).
type epochTraceLink struct {
	ctx   obs.SpanContext // zero when the epoch was untraced
	entry uint64          // the epoch's /traces entry; 0 without one
	// queryRecorded bounds the epoch entry's growth: only the first sampled
	// reader appends a span; later readers only link.
	queryRecorded atomic.Bool
}

// joinEpochTrace connects a sampled query to the pipeline trace of the
// epoch that published the state it read (if that epoch was traced): the
// query links the pipeline trace ID, and the first sampled reader per epoch
// hangs a query.read span under the epoch's root span. Returns the pipeline
// trace ID (0 when the epoch was not traced).
func (s *Server) joinEpochTrace(qt sampledQuery, st *served, cached bool, reads int64) uint64 {
	link := st.link
	if link == nil || !link.ctx.Valid() {
		return 0
	}
	traceLink(s.queryRing, qt.entry, link.ctx.TraceID)
	if link.queryRecorded.CompareAndSwap(false, true) {
		now := time.Now()
		s.traceSpan(link.entry, link.ctx.NewChild(), "query.read", now, 0,
			obs.Int("query_id", int64(qt.id)),
			obs.Int("query_trace_id", int64(qt.traceID)),
			obs.Bool("cached", cached),
			obs.Int("reads", reads),
			obs.Int("epoch", int64(st.epoch)))
	}
	return link.ctx.TraceID
}

// dumpFlight latches one flight-recorder dump for a forensic episode.
// No-op when the recorder is off.
func (s *Server) dumpFlight(reason string, attrs ...obs.Attr) {
	if s.flight == nil {
		return
	}
	d := s.flight.Dump(reason, attrs...)
	s.stats.flightDumps.Add(1)
	evAttrs := append([]obs.Attr{
		obs.String("reason", reason),
		obs.Int("records", int64(len(d.Records))),
		obs.String("path", d.Path),
	}, attrs...)
	obs.Emit(s.obsv, obs.EvFlightDump, evAttrs...)
}

// FlightDumps returns the retained flight-recorder dumps, oldest first
// (nil when the recorder is off).
func (s *Server) FlightDumps() []obs.FlightDump { return s.flight.Dumps() }

// LatencyExemplars returns the per-bucket latency exemplars — the most
// recent sampled query latency in each histogram bucket with its trace ID.
// Nil when trace sampling is off.
func (s *Server) LatencyExemplars() []LatencyExemplar { return s.exemplars.snapshot() }
