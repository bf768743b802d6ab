// Package obs is the observability layer of the MVPP designer: structured
// span tracing, typed events, and an atomic metrics registry, threaded
// through the whole design pipeline (per-query optimization, MVPP
// generation, view selection, cost evaluation, engine execution).
//
// The layer is zero-cost when disabled: a nil Observer is the off switch,
// every call site guards with a nil check (the package helpers Start, Emit
// and CounterOf encapsulate the guard), and a nil *Counter accepts Add as a
// no-op — so the hot paths pay one predictable branch and nothing else.
//
// Three Observer implementations ship with the package:
//
//   - NewLogObserver: renders spans and events through log/slog;
//   - NewRecorder: records the run's spans and events as Records, and
//     serializes them with the final counter values as a JSON trace
//     (WriteJSON/ParseTrace);
//   - Tee: fans out to several observers (log + trace at once).
package obs

// Attr is one key/value annotation on a span or event. Values should be
// strings, bools, or int64/float64-convertible numbers so every backend
// (slog, JSON) can render them faithfully.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// Float builds a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }

// EventKind is the type tag of an event — the pipeline's event taxonomy.
type EventKind string

// The event taxonomy. Every event the pipeline emits carries one of these
// kinds; backends and tests can switch on them without string matching.
const (
	// EvPlanChosen fires once per query when the single-query optimizer
	// settles on a plan (attrs: query, relations, cost).
	EvPlanChosen EventKind = "optimizer.plan"
	// EvCandidate fires once per generated MVPP candidate (attrs: rotation,
	// seed_order, vertices, total, query_cost, maintenance_cost, views).
	EvCandidate EventKind = "generate.candidate"
	// EvCandidateDedup fires when a rotation's MVPP duplicates an earlier
	// signature and is dropped (attrs: rotation, seed_order).
	EvCandidateDedup EventKind = "generate.dedup"
	// EvSelectStep fires once per Figure 9 decision (attrs: vertex, action,
	// weight, cs, note) — the selection trace as events.
	EvSelectStep EventKind = "select.step"
	// EvSafeguard fires when a baseline strategy replaces the greedy choice
	// (attrs: strategy, greedy_total, baseline_total).
	EvSafeguard EventKind = "design.safeguard"
	// EvCosts fires once per design with the final cost breakdown (attrs:
	// query_cost, maintenance_cost, total, all_virtual, all_materialized).
	EvCosts EventKind = "design.costs"
	// EvEngineOp surfaces one executed operator's measured OpStats (attrs:
	// op, reads, writes, out_rows, out_blocks).
	EvEngineOp EventKind = "engine.op"
	// EvMaintPlan fires once per materialized view when delta maintenance
	// is enabled, reporting the winning refresh plan (attrs: vertex,
	// strategy, cm_recompute, cm_incremental).
	EvMaintPlan EventKind = "select.maintenance_plan"
	// EvServeEpoch fires once per landed serving-layer maintenance epoch
	// (attrs: epoch, delta_rows, incremental, recomputed, failed, reads,
	// writes, operands_evaluated, operands_reused, duration_us) — and, with
	// only error, once per epoch the scheduler's loop saw abort.
	EvServeEpoch EventKind = "serve.epoch"
	// EvServeAdvice fires when the serving layer's advisor re-runs view
	// selection on observed frequencies (attrs: observed_queries, add,
	// drop, keep, current_total, proposed_total).
	EvServeAdvice EventKind = "serve.advice"
	// EvServeSwap fires when advice is applied to the live warehouse
	// (attrs: added, dropped, epoch).
	EvServeSwap EventKind = "serve.swap"
	// EvFault fires when the fault injector injects a failure (attrs:
	// site, kind — "error", "panic" or "delay").
	EvFault EventKind = "fault.injected"
	// EvServeRetry fires before each refresh retry attempt (attrs: target,
	// attempt, error).
	EvServeRetry EventKind = "serve.retry"
	// EvServeFallback fires when an incremental refresh exhausts its
	// retries and the scheduler falls back to full recomputation (attrs:
	// view, error).
	EvServeFallback EventKind = "serve.fallback"
	// EvServeBreaker fires on each per-view circuit-breaker transition
	// (attrs: view, from, to, reason).
	EvServeBreaker EventKind = "serve.breaker"
	// EvServeDegraded fires when a query degrades to the base-relation plan
	// because a view it would read is unhealthy or too stale (attrs:
	// views).
	EvServeDegraded EventKind = "serve.degraded"
	// EvServeJournal fires on delta-journal activity (attrs: action —
	// "replay" with rows and batches when a booting server replays the
	// journal, or "truncate" with error when a checkpoint's compaction
	// failed).
	EvServeJournal EventKind = "serve.journal"
	// EvServeQuery fires at each stage of a served query's lifecycle when
	// trace correlation is on (attrs: query_id, stage — "admit",
	// "cache_hit", "cache_miss", "execute", "degraded", "reply" — plus
	// query and, on reply, outcome detail). Every event of one query carries the same
	// query_id, so a whole lifecycle greps out of a trace by ID.
	EvServeQuery EventKind = "serve.query"
	// EvCostDrift fires when a cost-ledger entry's EWMA calibration ratio
	// first leaves the calibration band (attrs: kind, name, ratio,
	// predicted, actual).
	EvCostDrift EventKind = "costaudit.drift"
	// EvServeRecalibrated fires when drift triggers the advisor to re-run
	// view selection with recalibrated weights (attrs: views,
	// current_total, proposed_total).
	EvServeRecalibrated EventKind = "serve.recalibrated"
	// EvServeIngest fires on CDC streaming-ingest activity (attrs: action —
	// "group_commit" with rows/entries/committed_seq, or "shed" with
	// tables/rows when backpressure turned a batch away).
	EvServeIngest EventKind = "serve.ingest"
	// EvServeSLO fires when a view's freshness SLO flips state (attrs:
	// view, action — "violated" or "recovered" — lag_rows, stale_epochs).
	EvServeSLO EventKind = "serve.slo"
	// EvSnapshotCheckpoint fires once per durable snapshot checkpoint
	// (attrs: generation, epoch, watermark, tables, views, bytes,
	// aged_out) — and, with action "declined", when a trigger found
	// unlanded deltas and backed off.
	EvSnapshotCheckpoint EventKind = "snapshot.checkpoint"
	// EvSnapshotRecovery fires once per server boot that consulted the
	// snapshot store (attrs: generation, cold, restored, recomputed,
	// corrupt, bytes).
	EvSnapshotRecovery EventKind = "snapshot.recovery"
	// EvSnapshotCorrupt fires when a snapshot artifact fails validation —
	// a torn or bit-flipped segment, a malformed manifest — and recovery
	// falls back to recomputation instead of failing the boot (attrs:
	// artifact, error).
	EvSnapshotCorrupt EventKind = "snapshot.corrupt"
	// EvFlightDump fires when an episode (SLO breach, breaker open,
	// checkpoint error, recovery corruption) latches and the flight
	// recorder dumps its ring for post-hoc forensics (attrs: reason,
	// records, path).
	EvFlightDump EventKind = "obs.flight_dump"
)

// Canonical counter names. Call sites resolve them once via CounterOf (or
// Registry.Counter) and Add on the hot path.
const (
	// CtrPlansEnumerated counts join candidates priced by the single-query
	// optimizer's dynamic program.
	CtrPlansEnumerated = "optimizer.plans_enumerated"
	// CtrEstimatorCalls counts size/cost estimation requests.
	CtrEstimatorCalls = "cost.estimator_calls"
	// CtrMemoHits counts estimator requests answered from the memo table.
	CtrMemoHits = "cost.memo_hits"
	// CtrMergeAttempts counts join-skeleton merges tried during MVPP
	// generation (one per query per rotation).
	CtrMergeAttempts = "generate.merge_attempts"
	// CtrCandidates counts distinct MVPP candidates generated.
	CtrCandidates = "generate.candidates"
	// CtrGreedyIterations counts Figure 9 candidate-vertex iterations.
	CtrGreedyIterations = "select.greedy_iterations"
	// CtrSafeguardSubs counts baseline substitutions over the greedy choice.
	CtrSafeguardSubs = "design.safeguard_substitutions"
	// CtrEvaluateCalls counts full-MVPP cost evaluations.
	CtrEvaluateCalls = "core.evaluate_calls"
	// CtrEngineBlockReads / CtrEngineBlockWrites count the engine's measured
	// block I/O.
	CtrEngineBlockReads  = "engine.block_reads"
	CtrEngineBlockWrites = "engine.block_writes"
	// CtrIncrementalWins counts materialized views whose delta-propagation
	// plan beat recomputation.
	CtrIncrementalWins = "select.incremental_wins"
	// CtrServeQueries counts queries admitted to the serving layer.
	CtrServeQueries = "serve.queries"
	// CtrServeCacheHits / CtrServeCacheMisses count result-cache outcomes.
	CtrServeCacheHits   = "serve.cache_hits"
	CtrServeCacheMisses = "serve.cache_misses"
	// CtrServeRejected counts queries the admission controller turned away
	// (every execution slot taken and the caller's context ended first).
	CtrServeRejected = "serve.rejected"
	// CtrServeBackpressured counts cache misses that found every execution
	// slot taken and the router's QueueDepth callers already waiting.
	CtrServeBackpressured = "serve.backpressured"
	// CtrServeEpochs counts maintenance epochs the scheduler ran.
	CtrServeEpochs = "serve.epochs"
	// CtrServeIncrementalRefreshes / CtrServeRecomputes count the view
	// refreshes landed epochs ran by delta propagation and by full
	// recomputation.
	CtrServeIncrementalRefreshes = "serve.incremental_refreshes"
	CtrServeRecomputes           = "serve.recomputes"
	// CtrServePlanRewrites counts view rewrites of a query plan: one per
	// distinct workload-query plan per view-set generation published, one
	// per miss of an ad-hoc plan that equals no workload query.
	CtrServePlanRewrites = "serve.plan_rewrites"
	// CtrServeDeltaRows counts base-table delta rows ingested.
	CtrServeDeltaRows = "serve.delta_rows"
	// CtrServeRefreshReads / CtrServeRefreshWrites count the block I/O the
	// scheduler's view refreshes spent.
	CtrServeRefreshReads  = "serve.refresh_reads"
	CtrServeRefreshWrites = "serve.refresh_writes"
	// CtrFaultsInjected counts faults the injector actually injected
	// (errors + panics + delays).
	CtrFaultsInjected = "fault.injected"
	// CtrServeRetries counts refresh retry attempts (beyond each first
	// attempt).
	CtrServeRetries = "serve.retries"
	// CtrServeRefreshFailures counts view refreshes that failed after
	// exhausting their retries.
	CtrServeRefreshFailures = "serve.refresh_failures"
	// CtrServeFallbacks counts incremental refreshes that fell back to full
	// recomputation after repeated delta-application failures.
	CtrServeFallbacks = "serve.fallbacks"
	// CtrServeBreakerTrips counts per-view circuit-breaker trips (closed or
	// half-open → open).
	CtrServeBreakerTrips = "serve.breaker_trips"
	// CtrServeDegraded counts queries answered from base relations because
	// a view they would read was unhealthy or past its staleness bound.
	CtrServeDegraded = "serve.degraded_queries"
	// CtrServePanics counts panics recovered in router workers and the
	// maintenance scheduler.
	CtrServePanics = "serve.panics_recovered"
	// CtrServeReplayedRows counts delta rows replayed from the journal at
	// server start.
	CtrServeReplayedRows = "serve.replayed_rows"
	// CtrCostObservations counts actuals recorded in the cost ledger.
	CtrCostObservations = "costaudit.observations"
	// CtrCostDrifts counts ledger entries newly flagged as drifted.
	CtrCostDrifts = "costaudit.drifts"
	// CtrServeRecalibrations counts drift-triggered advisor re-selections.
	CtrServeRecalibrations = "serve.recalibrations"
	// CtrServeStreamRows counts rows group-committed through the CDC
	// streaming ingest path; CtrServeStreamGroups counts the group commits.
	CtrServeStreamRows   = "serve.stream_rows"
	CtrServeStreamGroups = "serve.stream_groups"
	// CtrServeStreamShed counts StreamIngest calls shed with the typed
	// backpressure error after blocking past the deadline;
	// CtrServeStreamBlocked counts calls that had to block on the full feed
	// buffer at all.
	CtrServeStreamShed    = "serve.stream_shed"
	CtrServeStreamBlocked = "serve.stream_blocked"
	// CtrServeSLOViolations counts freshness-SLO violation episodes (one per
	// view entering the violated state).
	CtrServeSLOViolations = "serve.slo_violations"
	// CtrServeCheckpointDeclined counts snapshot checkpoints declined
	// mid-epoch (unlanded deltas); a climbing value means the warehouse
	// never reaches a landed state between triggers.
	CtrServeCheckpointDeclined = "serve.checkpoint_declined"
	// CtrServeFlightDumps counts flight-recorder dumps taken (one per
	// latched episode: SLO breach, breaker open, checkpoint error,
	// recovery corruption).
	CtrServeFlightDumps = "serve.flight_dumps"
	// CtrSnapshotCheckpoints counts durable snapshot checkpoints taken.
	CtrSnapshotCheckpoints = "snapshot.checkpoints"
	// CtrSnapshotCorrupt counts snapshot artifacts (segments, manifests)
	// that failed validation and were skipped during recovery.
	CtrSnapshotCorrupt = "snapshot.corrupt_artifacts"
	// CtrSnapshotRestoredViews counts views restored from snapshot segments
	// at boot without recomputation.
	CtrSnapshotRestoredViews = "snapshot.restored_views"
)

// Canonical gauge names for the serving layer.
const (
	// GaugeServeQueueDepth is how many callers wait for an execution slot now.
	GaugeServeQueueDepth = "serve.queue_depth"
	// GaugeServeStaleRows is the buffer total: the delta rows ingested and
	// not yet landed (buffered, or staged by an epoch that was let go), each
	// counted once however many views read its table.
	GaugeServeStaleRows = "serve.stale_rows"
	// GaugeServeUnhealthyViews is the number of views whose circuit breaker
	// is currently not closed.
	GaugeServeUnhealthyViews = "serve.unhealthy_views"
	// GaugeServeIngestBufferRows is the CDC change feed's current occupancy
	// (accepted rows awaiting their group commit).
	GaugeServeIngestBufferRows = "serve.ingest_buffer_rows"
	// GaugeSnapshotBytes is the byte size of the newest snapshot generation.
	GaugeSnapshotBytes = "snapshot.bytes"
	// GaugeSnapshotGeneration is the newest snapshot generation number.
	GaugeSnapshotGeneration = "snapshot.generation"
)

// Observer receives spans, events, and hosts the metrics registry. A nil
// Observer disables instrumentation; call sites must guard (or use the
// package helpers, which do).
type Observer interface {
	// StartSpan opens a timed region nested under this observer. The
	// returned Span is itself an Observer: pass it to callees so their
	// spans and events nest correctly, including across goroutines.
	StartSpan(name string, attrs ...Attr) Span
	// Event records one typed event.
	Event(kind EventKind, attrs ...Attr)
	// Metrics returns the observer's counter/gauge registry. All spans of
	// one observer share a single registry.
	Metrics() *Registry
}

// Span is a timed region of the pipeline. Spans nest: a Span is an
// Observer whose child spans and events attach under it.
type Span interface {
	Observer
	// Annotate attaches attributes to the span after it started.
	Annotate(attrs ...Attr)
	// End closes the span, fixing its duration. End is idempotent.
	End()
}

// Start opens a span when o is non-nil and returns nil otherwise, so call
// sites can write sp := obs.Start(o, ...); ...; obs.End(sp).
func Start(o Observer, name string, attrs ...Attr) Span {
	if o == nil {
		return nil
	}
	return o.StartSpan(name, attrs...)
}

// End closes a span from Start, tolerating nil.
func End(s Span) {
	if s != nil {
		s.End()
	}
}

// From converts a span into the observer to hand to callees, mapping nil
// to nil (keeping the disabled path a plain nil check all the way down).
func From(s Span) Observer {
	if s == nil {
		return nil
	}
	return s
}

// Emit records an event when o is non-nil.
func Emit(o Observer, kind EventKind, attrs ...Attr) {
	if o != nil {
		o.Event(kind, attrs...)
	}
}

// CounterOf resolves a named counter from the observer's registry, or nil
// when o is nil — and a nil *Counter accepts Add/Inc as no-ops, so hot
// loops can hold the result unconditionally.
func CounterOf(o Observer, name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics().Counter(name)
}

// RegistryOf returns the observer's registry, or nil when o is nil.
func RegistryOf(o Observer) *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics()
}

// Tee fans out to every non-nil observer. It returns nil when none
// remain and the sole survivor when only one does, so the disabled and
// single-backend paths keep their direct representation. The first
// observer's registry serves Metrics(); to keep counters consistent
// across backends, construct the backends over one shared Registry.
func Tee(observers ...Observer) Observer {
	var live []Observer
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &tee{obs: live}
}

type tee struct {
	obs []Observer
}

func (t *tee) StartSpan(name string, attrs ...Attr) Span {
	spans := make([]Span, len(t.obs))
	for i, o := range t.obs {
		spans[i] = o.StartSpan(name, attrs...)
	}
	return &teeSpan{tee: tee{obs: spansAsObservers(spans)}, spans: spans}
}

func (t *tee) Event(kind EventKind, attrs ...Attr) {
	for _, o := range t.obs {
		o.Event(kind, attrs...)
	}
}

func (t *tee) Metrics() *Registry { return t.obs[0].Metrics() }

type teeSpan struct {
	tee
	spans []Span
}

func (s *teeSpan) Annotate(attrs ...Attr) {
	for _, sp := range s.spans {
		sp.Annotate(attrs...)
	}
}

func (s *teeSpan) End() {
	for _, sp := range s.spans {
		sp.End()
	}
}

func spansAsObservers(spans []Span) []Observer {
	out := make([]Observer, len(spans))
	for i, sp := range spans {
		out[i] = sp
	}
	return out
}

// MetricsOnly returns an Observer that records no spans or events but
// carries reg, so the pipeline's counters still accumulate — e.g. for the
// expvar export when neither a log nor a trace backend is active.
func MetricsOnly(reg *Registry) Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &metricsObserver{reg: reg}
}

type metricsObserver struct{ reg *Registry }

func (m *metricsObserver) StartSpan(string, ...Attr) Span { return &metricsSpan{m} }
func (m *metricsObserver) Event(EventKind, ...Attr)       {}
func (m *metricsObserver) Metrics() *Registry             { return m.reg }

type metricsSpan struct{ *metricsObserver }

func (s *metricsSpan) Annotate(...Attr) {}
func (s *metricsSpan) End()             {}
