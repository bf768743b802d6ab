package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/costaudit"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/obs"
)

// Staleness reports how far one materialized view lags the ingested
// deltas.
type Staleness struct {
	// Strategy is the view's maintenance strategy ("incremental" or
	// "recompute").
	Strategy string
	// Epoch is the refresh epoch at the view's last refresh (0 if never
	// refreshed since serving started).
	Epoch uint64
	// PendingRows counts rows ingested into the view's base relations and
	// not yet landed — buffered, or staged by an epoch that was let go.
	// They are invisible to every plan (views and base alike); LagRows is
	// the part that actually skews answers.
	PendingRows int
	// LagRows counts rows already applied to the base tables that the
	// stored view does not reflect — the debt of failed refreshes. The
	// breaker's staleness bound tests against it.
	LagRows int
	// Breaker is the circuit breaker position ("closed" or "open"; a probe
	// passes through "half-open" inside the epoch that lands it, as its
	// serve.breaker events show); ConsecutiveFailures counts persistent
	// refresh failures since the last success; Degrading reports whether
	// queries over the view are currently answered from base relations;
	// LastError is the most recent refresh failure ("" when healthy).
	Breaker             string
	ConsecutiveFailures int
	Degrading           bool
	LastError           string
	// LastRefresh is when the scheduler last refreshed the view (zero if
	// never).
	LastRefresh time.Time
	// Policy is the view's refresh policy in ParsePolicy form ("on-commit",
	// "manual", "scheduled:<interval>", "streaming").
	Policy string
	// Status is the view's lifecycle position: VALID, STALE, BUILDING, or
	// ERROR (see ViewStatus).
	Status string
	// SLOViolated reports whether the view's freshness SLO is breached right
	// now; SLOViolations counts distinct violation episodes since serving
	// started; StaleEpochs counts consecutive epochs the view ended lagging.
	SLOViolated   bool
	SLOViolations int64
	StaleEpochs   int
}

// scheduler buffers ingested delta rows and turns them into maintenance
// epochs. Its loop is the server's one maintenance goroutine: it takes a
// turn as the maintainer on a filled batch (an epoch) and on the snapshot
// timer (a checkpoint); Flush and the other synchronous entry points take the
// same turn on their caller's goroutine. What an epoch does with each view,
// and what a landed one leaves, is the lifecycle table (lifecycle.go).
type scheduler struct {
	s       *Server
	batch   int
	kick    chan struct{}
	breaker BreakerPolicy
	journal engine.DeltaJournal
	// defaultPolicy/defaultSLO resolve unset per-view settings, both at
	// construction and for views added later by advice swaps.
	defaultPolicy RefreshPolicy
	defaultSLO    FreshnessSLO

	// commitMu is the commit-order lock: one group at a time is journaled
	// and then staged (commit), so journal LSN order, feed arrival order and
	// staging order are one order, and the journal's fsync waits on no lock a
	// reader takes. take() holds it too: an epoch boundary falls between two
	// groups, never between a group's journal write and its staging.
	// Acquired before mu, the feed's mu and the journal's own lock.
	commitMu sync.Mutex

	// mu guards the delta buffer, the view registry, and the journal
	// watermark. It is never held across I/O. Readers never take it: the view
	// health they need is published with the served state.
	mu      sync.Mutex
	buf     map[string][][]algebra.Value
	bufRows int
	views   map[string]*viewState
	// appendLSN is the highest journal LSN whose rows are buffered; take()
	// captures it as the watermark of the epoch that lands them.
	appendLSN uint64
	// ackedLSN is the highest journal LSN whose rows have landed in the
	// base tables (acked when the epoch that applied them commits) — the
	// watermark a snapshot checkpoint stamps, the floor journal compaction
	// truncates to, and the low bound of the next epoch's lineage LSN range,
	// so the (lo, hi] ranges of the landed epochs partition the journal.
	ackedLSN uint64
	// bufBatches counts the records staged and not yet landed;
	// pendingTraces carries the sampled ingest batches' span contexts into
	// the epoch that lands them. Both are staged with the rows in commit's
	// one mu hold, read by take and settled when the epoch lands, so a batch
	// and its trace land in the same epoch — the one that retries them, when
	// the first was aborted.
	bufBatches    int
	pendingTraces []ingestTraceRef
}

// ingestTraceRef ties one sampled ingest batch to the maintenance epoch
// that lands it: ctx is the batch's span context (the epoch adopts the
// first contributor's trace and links the rest), entry its /traces entry
// (0 when only the flight recorder is armed).
type ingestTraceRef struct {
	ctx   obs.SpanContext
	entry uint64
}

func newScheduler(s *Server, cfg Config) (*scheduler, error) {
	batch := cfg.DeltaBatch
	if batch <= 0 {
		batch = DefaultDeltaBatch
	}
	sc := &scheduler{
		s:             s,
		batch:         batch,
		kick:          make(chan struct{}, 1),
		breaker:       cfg.Breaker.withDefaults(),
		journal:       cfg.Journal,
		buf:           make(map[string][][]algebra.Value),
		views:         make(map[string]*viewState, len(cfg.Views)),
		defaultPolicy: cfg.DefaultPolicy,
		defaultSLO:    cfg.DefaultSLO,
	}
	stored := s.db.Relations()
	for _, vs := range cfg.Views {
		v, err := stored.View(vs.Name)
		if err != nil {
			return nil, fmt.Errorf("serve: view %q is not materialized in the DB: %w", vs.Name, err)
		}
		rels, err := baseRelationsOf(stored, v.Plan)
		if err != nil {
			return nil, err
		}
		sc.views[vs.Name] = &viewState{
			name:     vs.Name,
			strategy: vs.Strategy,
			rels:     rels,
			policy:   vs.Policy.orDefault(cfg.DefaultPolicy),
			slo:      vs.SLO.orDefault(cfg.DefaultSLO),
		}
	}
	return sc, nil
}

// baseRelationsOf collects the base relations a plan scans, following
// view references transitively.
func baseRelationsOf(db *engine.RelationSet, plan algebra.Node) (map[string]bool, error) {
	rels := make(map[string]bool)
	var walkErr error
	var visit func(n algebra.Node)
	visit = func(n algebra.Node) {
		algebra.Walk(n, func(m algebra.Node) {
			scan, ok := m.(*algebra.Scan)
			if !ok || walkErr != nil {
				return
			}
			if _, err := db.Table(scan.Relation); err == nil {
				rels[scan.Relation] = true
				return
			}
			v, err := db.View(scan.Relation)
			if err != nil {
				walkErr = fmt.Errorf("serve: plan scans unknown relation %q", scan.Relation)
				return
			}
			visit(v.Plan)
		})
	}
	visit(plan)
	return rels, walkErr
}

// loop is the maintenance goroutine; a positive snapEvery arms the
// wall-clock checkpoint trigger (Config.SnapshotInterval).
func (sc *scheduler) loop(snapEvery time.Duration) {
	defer sc.s.wg.Done()
	var tick <-chan time.Time // never fires without a store and an interval
	if sc.s.snap != nil && snapEvery > 0 {
		t := time.NewTicker(snapEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-sc.s.closed:
			return
		case <-sc.kick:
			// A failed epoch is retried by the next kick; surface it
			// through the observer rather than dying silently.
			if err := sc.s.runEpoch(); err != nil {
				obs.Emit(sc.s.obsv, obs.EvServeEpoch, obs.String("error", err.Error()))
			}
		case <-tick:
			sc.s.checkpointIfChanged()
		}
	}
}

// Ingest stages delta rows for a base table: a one-record IngestBatch.
func (s *Server) Ingest(table string, rows ...[]algebra.Value) error {
	return s.IngestBatch([]engine.DeltaRecord{{Table: table, Rows: rows}})
}

// IngestBatch stages a multi-table delta batch (each record's Table and
// Rows) directly, as one group and all-or-nothing. The rows become visible
// only when the next maintenance epoch lands (batch filled or Flush). With a
// journal configured, the group is journaled durably before it is buffered;
// a journaling failure refuses the whole batch, so every accepted batch is
// recoverable.
func (s *Server) IngestBatch(batch []engine.DeltaRecord) error {
	recs, rows, err := s.admit(batch)
	if err != nil || rows == 0 {
		return err
	}
	s.sched.commitMu.Lock()
	defer s.sched.commitMu.Unlock()
	_, err = s.commit(recs, 0, nil)
	return err
}

// admit is the write path's one validation: every record names a base table
// that accepts its rows (engine.Table.CheckRows), so a batch the epoch would
// refuse is refused before it is journaled. It returns the batch without its
// empty records, and its row count.
func (s *Server) admit(batch []engine.DeltaRecord) (recs []engine.DeltaRecord, rows int, err error) {
	for _, rec := range batch {
		t, err := s.db.Table(rec.Table)
		if err != nil {
			return nil, 0, err
		}
		if err := t.CheckRows(rec.Rows...); err != nil {
			if rec.LSN != 0 { // a journaled record, replayed at boot
				err = fmt.Errorf("journal record at LSN %d: %w", rec.LSN, err)
			}
			return nil, 0, err
		}
		if len(rec.Rows) > 0 {
			recs = append(recs, rec)
			rows += len(rec.Rows)
		}
	}
	return recs, rows, nil
}

// commit is the write path's one way in: it journals an admitted group
// write-ahead with one AppendGroup, then stages every record for the next
// epoch under one short hold of the buffer lock — so the watermark an epoch
// takes covers exactly the rows it stages. The caller holds commitMu; the
// journal's fsync happens under it and outside sc.mu. A group whose
// journaling fails is refused whole: nothing staged, so no view's
// PendingRows moves. replayedTo is nonzero for a group read back from the
// journal: it is durable up to that LSN already and is only staged. refs
// are the group's sampled span contexts; they ride the buffer into the
// epoch that lands it. Returns the group's last LSN (0 when unjournaled).
func (s *Server) commit(recs []engine.DeltaRecord, replayedTo uint64, refs []ingestTraceRef) (uint64, error) {
	select {
	case <-s.closed:
		return 0, ErrClosed
	default:
	}
	sc := s.sched
	lastLSN := replayedTo
	if sc.journal != nil && replayedTo == 0 {
		var err error
		if lastLSN, err = sc.journal.AppendGroup(recs); err != nil {
			return 0, fmt.Errorf("serve: journaling deltas: %w", err)
		}
	}
	rows := 0
	sc.mu.Lock()
	for _, rec := range recs {
		sc.buf[rec.Table] = append(sc.buf[rec.Table], rec.Rows...)
		rows += len(rec.Rows)
	}
	if lastLSN > sc.appendLSN {
		sc.appendLSN = lastLSN
	}
	sc.bufRows += rows
	sc.bufBatches += len(recs)
	sc.pendingTraces = append(sc.pendingTraces, refs...)
	full := sc.bufRows >= sc.batch
	stale := sc.unappliedLocked(nil)
	sc.mu.Unlock()

	s.stats.deltaRows.Add(int64(rows))
	s.stats.staleRows.Set(float64(stale))
	if full {
		select {
		case sc.kick <- struct{}{}:
		default:
		}
	}
	return lastLSN, nil
}

// replayJournal re-stages every journal record past the watermark of the
// state the server boots on — a recovered snapshot's, or 0 for a freshly
// built warehouse — as one unjournaled group: the DB holds only the rows up
// to that watermark, whether or not the dead process had landed the rest.
// Called by newServer before the server answers a query or its scheduler
// loop starts; the rows land with the first epoch.
func (s *Server) replayJournal() error {
	sc := s.sched
	if sc.journal == nil {
		return nil
	}
	var watermark uint64
	if s.recovery != nil {
		watermark = s.recovery.Watermark
	}
	pending, err := sc.journal.RecordsSince(watermark)
	if err != nil {
		return fmt.Errorf("serve: reading journal for replay: %w", err)
	}
	recs, replayed, err := s.admit(pending)
	if err != nil {
		return fmt.Errorf("serve: replaying journaled deltas: %w", err)
	}
	if replayed == 0 {
		return nil
	}
	sc.commitMu.Lock()
	_, err = s.commit(recs, pending[len(pending)-1].LSN, nil)
	sc.commitMu.Unlock()
	if err != nil {
		return fmt.Errorf("serve: replaying journaled deltas: %w", err)
	}
	s.stats.replayedRows.Add(int64(replayed))
	obs.Emit(s.obsv, obs.EvServeJournal,
		obs.String("action", "replay"),
		obs.Int("rows", int64(replayed)),
		obs.Int("batches", int64(len(pending))))
	return nil
}

// Flush synchronously runs one maintenance epoch over everything ingested
// so far (a no-op when nothing is pending and every view is healthy).
func (s *Server) Flush() error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	return s.runEpoch()
}

// Staleness reports each maintained view's lag behind the ingested deltas
// and its fault-tolerance status.
func (s *Server) Staleness() map[string]Staleness {
	sc := s.sched
	now := time.Now()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[string]Staleness, len(sc.views))
	for name, vs := range sc.views {
		r := vs.reading(sc.breaker, now)
		out[name] = Staleness{
			Strategy:            vs.strategy.String(),
			Epoch:               vs.epoch,
			PendingRows:         sc.unappliedLocked(vs.rels),
			LagRows:             vs.lag,
			Breaker:             vs.state.String(),
			ConsecutiveFailures: vs.failures,
			Degrading:           r.degrading,
			LastError:           vs.lastErr,
			LastRefresh:         vs.lastRefresh,
			Policy:              vs.policy.String(),
			Status:              r.status.String(),
			SLOViolated:         r.breached,
			SLOViolations:       vs.sloViolations,
			StaleEpochs:         vs.staleEpochs,
		}
	}
	return out
}

// RefreshView forces one view to refresh in the next maintenance epoch —
// overriding its policy (this is how manual views catch up), its schedule,
// and the breaker cooldown — and runs that epoch synchronously.
func (s *Server) RefreshView(name string) error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	sc := s.sched
	sc.mu.Lock()
	vs, ok := sc.views[name]
	if !ok {
		sc.mu.Unlock()
		return fmt.Errorf("serve: unknown view %q", name)
	}
	vs.forceRefresh = true
	sc.mu.Unlock()
	return s.runEpoch()
}

// RefreshAllViews forces every maintained view to refresh — regardless of
// policy — in one synchronous maintenance epoch.
func (s *Server) RefreshAllViews() error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	sc := s.sched
	sc.mu.Lock()
	for _, vs := range sc.views {
		vs.forceRefresh = true
	}
	sc.mu.Unlock()
	return s.runEpoch()
}

// Views returns the currently maintained view names, sorted.
func (s *Server) Views() []string {
	sc := s.sched
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]string, 0, len(sc.views))
	for name := range sc.views {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// unappliedLocked counts the rows ingested into the given base relations
// (every base table when rels is nil) and not yet landed: buffered here, or
// staged in the engine by an epoch that was let go. Over a view's relations
// it is the view's PendingRows; over every table, each row counted once, the
// serve.stale_rows gauge. Caller holds mu.
func (sc *scheduler) unappliedLocked(rels map[string]bool) int {
	n := 0
	count := func(table string) { n += len(sc.buf[table]) + sc.s.db.PendingDeltaRows(table) }
	if rels == nil {
		for _, table := range sc.s.db.Tables() {
			count(table)
		}
	}
	for rel := range rels {
		count(rel)
	}
	return n
}

// hasWork reports whether an epoch has anything to do: rows to land, or a
// view that plan would refresh although no delta lands — a forced refresh, a
// probe of a cooled-down breaker, lag to catch up under a policy that is due.
// A cooling breaker and a manual view's deliberate lag do not keep the
// scheduler spinning.
func (sc *scheduler) hasWork() bool {
	now := time.Now()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.unappliedLocked(nil) > 0 {
		return true
	}
	for _, vs := range sc.views {
		if plan(vs.facts(sc.breaker, false, now)).refreshes() {
			return true
		}
	}
	return false
}

// take stages the buffered rows in the engine as pending deltas, in the same
// hold of mu that empties the buffer — so a row is always counted by
// unappliedLocked, buffered or staged — and returns the journal watermark
// covering them (ackLSN), the watermark of the last landed epoch
// (floorLSN — together they bound the epoch's lineage range (floorLSN,
// ackLSN]), and the records and sampled span contexts not yet landed: those
// staged since the last take and those of an aborted epoch, whose rows wait
// in the engine. It waits out a commit in flight (commitMu), so ackLSN is
// the last LSN the journal has assigned: every record at or below it was
// staged by this take or an earlier one, every later one comes later.
func (sc *scheduler) take() (ackLSN, floorLSN uint64, batches int, refs []ingestTraceRef, err error) {
	sc.commitMu.Lock()
	defer sc.commitMu.Unlock()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for table, rows := range sc.buf {
		if err := sc.s.db.InsertDelta(table, rows...); err != nil {
			return 0, 0, 0, nil, err
		}
		delete(sc.buf, table)
		sc.bufRows -= len(rows)
	}
	return sc.appendLSN, sc.ackedLSN, sc.bufBatches, sc.pendingTraces, nil
}

// runEpoch is one turn of the maintainer: a maintenance epoch, then the
// drift check over what its refreshes observed, then — if it landed — the
// epoch-count checkpoint. The epoch is panic-guarded: a panicking refresh
// (injected or real) is recovered into an error so the scheduler loop — and
// with it the whole serving layer — survives.
func (s *Server) runEpoch() error {
	return s.maintain(func() error {
		err := s.guardedEpochLocked()
		s.recalibrateLocked()
		if err == nil {
			s.checkpointIfDueLocked()
		}
		return err
	})
}

func (s *Server) guardedEpochLocked() (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			err = fmt.Errorf("serve: maintenance epoch recovered from panic: %v", r)
		}
	}()
	return s.runEpochLocked()
}

// runEpochLocked is one maintenance epoch: stage the buffered rows as
// engine deltas, open an engine epoch, plan every view (one action each, see
// lifecycle.go), run the planned refreshes inside it (incremental views by
// delta propagation, then the deltas fold into the base tables, then
// recomputes and probes), commit it, settle every view and publish the
// successor state — the one publication: readers see the whole epoch or
// none of it — and emit the transitions settle returned.
// Fault tolerance around that spine:
//
//   - every refresh step runs under the retry policy (backoff + jitter);
//   - an incremental refresh that stays failed falls back to recomputation;
//   - a recompute that stays failed leaves the view behind — its lag grows
//     by the rows applied this epoch — and feeds the circuit breaker: at
//     FailureThreshold consecutive failures the breaker opens, queries
//     degrade to base relations, and refresh attempts pause until Cooldown
//     elapses, after which one half-open probe recomputes the view;
//   - only a persistent ApplyDeltas failure (or a panic) aborts the whole
//     epoch: the engine epoch is let go having published nothing and settled
//     no view, the deltas stay pending in the engine, and the next epoch
//     plans afresh and takes them in together with whatever arrived since;
//   - the in-memory acked watermark moves only after the epoch commits.
func (s *Server) runEpochLocked() error {
	sc := s.sched
	if !sc.hasWork() {
		return nil
	}
	if err := s.inj.Hit(fault.SiteServeEpoch); err != nil {
		// Injected before anything is staged: the buffered rows survive for
		// the next epoch.
		return err
	}
	ackLSN, floorLSN, batches, traceRefs, err := sc.take()
	if err != nil {
		return err
	}
	epoch := s.state.Load().epoch + 1 // only the maintainer publishes

	// Causal epoch trace: the epoch adopts the first sampled contributor's
	// trace ID — so one trace ID follows a delta from StreamIngest through
	// group commit, journal, and the refreshes that land it — and links the
	// remaining contributors. With tracing and the flight recorder both off,
	// every context below stays zero and every recording site no-ops.
	epochStart := time.Now()
	var ectx obs.SpanContext
	var etr uint64
	if s.tracingArmed() {
		if len(traceRefs) > 0 {
			ectx = traceRefs[0].ctx.NewChild()
		} else {
			ectx = obs.NewTraceContext()
		}
		etr = s.pipelineTrace("epoch", epoch, ectx)
		for _, ref := range traceRefs {
			traceLink(s.writeRing, etr, ref.ctx.TraceID)
		}
	}
	// child mints a span under the epoch span; zero when the epoch is
	// untraced, so call sites stay nil-off.
	child := func() obs.SpanContext {
		if !ectx.Valid() {
			return obs.SpanContext{}
		}
		return ectx.NewChild()
	}

	// One engine epoch for everything below: it freezes the pending rows,
	// evaluates operands and common Δ-subexpressions once, and publishes
	// nothing before its Commit. Retry, fault site, fallback and span stay
	// per view. It holds every relation it derived: a local of this function.
	ep := s.db.BeginMaintenance()
	// The rows about to fold into each table: what this epoch lands, the
	// fu-driven filter (only views whose base relations gained deltas
	// refresh), and the lag a view that does not refresh accrues.
	appliedByTable := ep.Pending()
	n := 0
	for _, rows := range appliedByTable {
		n += rows
	}
	// Plan every view, in name order, under one hold of the registry lock:
	// nothing is written but BUILDING, which this epoch clears however it
	// ends — landed, let go or panicking.
	now := time.Now()
	sc.mu.Lock()
	views := make([]viewEpoch, 0, len(sc.views))
	for _, vs := range sc.views {
		applied := 0
		for rel := range vs.rels {
			applied += appliedByTable[rel]
		}
		f := vs.facts(sc.breaker, applied > 0, now)
		v := viewEpoch{vs: vs, act: plan(f), forced: f.forced, applied: applied}
		vs.building = v.act.refreshes()
		views = append(views, v)
	}
	sc.mu.Unlock()
	defer func() {
		sc.mu.Lock()
		for _, v := range views {
			v.vs.building = false
		}
		sc.mu.Unlock()
	}()
	sort.Slice(views, func(i, j int) bool { return views[i].vs.name < views[j].vs.name })

	var incremental, recompute []*viewEpoch
	var incNames []string
	decided := time.Now()
	for i := range views {
		v := &views[i]
		switch {
		case v.act == actIncremental:
			incremental = append(incremental, v)
			incNames = append(incNames, v.vs.name)
		case v.act.refreshes():
			v.mode = "recompute"
			recompute = append(recompute, v)
		case v.applied > 0 && ectx.Valid():
			// A view this epoch consciously does NOT refresh is recorded as a
			// zero-duration span: a later forensic dump (SLO breach on a
			// deferred manual view, breaker episode on a cooling one) must show
			// the decision that let the view fall behind, not just the
			// refreshes that ran.
			span, reason := "refresh.deferred", "policy"
			if v.act == actCool {
				span, reason = "refresh.skipped", "breaker-cooldown"
			}
			s.traceSpan(etr, child(), span, decided, 0,
				obs.String("view", v.vs.name), obs.String("reason", reason))
		}
	}
	// Price this epoch's delta propagations from the actual pending delta
	// fractions, before the refreshes spend their measured I/O.
	s.predictIncremental(incNames, appliedByTable)

	var reads, writes int64
	incDone := 0
	for _, v := range incremental {
		name := v.vs.name
		rctx, rstart := child(), time.Now()
		res, attempts, err := s.retryRefresh(s.baseCtx, rctx, "incremental refresh of "+name, func() (*engine.Result, error) {
			return ep.IncrementalRefresh(name)
		})
		if errors.Is(err, engine.ErrNotIncremental) {
			// The design promised delta propagation but the plan cannot be
			// maintained that way — fall back to recomputation (not a
			// fault, not retried).
			if rctx.Valid() {
				s.traceSpan(etr, rctx, "refresh.incremental", rstart, time.Since(rstart),
					obs.String("view", name), obs.Int("attempts", int64(attempts)),
					obs.String("outcome", "not-incremental"))
			}
			v.mode = "recompute"
			recompute = append(recompute, v)
			continue
		}
		if err != nil {
			// Persistently failed delta propagation: fall back to a full
			// recompute after the deltas land.
			s.stats.fallbacks.Add(1)
			obs.Emit(s.obsv, obs.EvServeFallback,
				obs.String("view", name), obs.String("error", err.Error()))
			if rctx.Valid() {
				s.traceSpan(etr, rctx, "refresh.incremental", rstart, time.Since(rstart),
					obs.String("view", name), obs.Int("attempts", int64(attempts)),
					obs.String("outcome", "fallback"), obs.String("error", err.Error()))
			}
			v.mode = "fallback-recompute"
			recompute = append(recompute, v)
			continue
		}
		if rctx.Valid() {
			s.traceSpan(etr, rctx, "refresh.incremental", rstart, time.Since(rstart),
				obs.String("view", name), obs.Int("attempts", int64(attempts)),
				obs.String("outcome", "ok"),
				obs.Int("reads", res.TotalReads()), obs.Int("writes", res.TotalWrites()))
		}
		v.mode = "incremental"
		incDone++
		reads += res.TotalReads()
		writes += res.TotalWrites()
		s.observeAudit(costaudit.KindIncremental, name, res.TotalReads()+res.TotalWrites())
	}
	sort.Slice(recompute, func(i, j int) bool { return recompute[i].vs.name < recompute[j].vs.name })
	// How many join-delta operands were evaluated whole, and how many
	// carried row counts stood in for them: on the epoch span and event.
	whole, carried := ep.Operands()

	actx, astart := child(), time.Now()
	if _, _, err := s.retryRefresh(s.baseCtx, actx, "delta application", func() (*engine.Result, error) {
		return nil, ep.ApplyDeltas()
	}); err != nil {
		// The engine epoch is let go: nothing was published, nothing is lost
		// — the deltas stay pending in the engine, the acked watermark unmoved,
		// the staged records and trace contexts unsettled, every view as it
		// was — the next retries.
		s.stats.refreshFailures.Add(1)
		s.winRefreshFail.Add(time.Now().Unix(), 1)
		return fmt.Errorf("serve: applying deltas: %w", err)
	}
	if actx.Valid() {
		s.traceSpan(etr, actx, "epoch.apply", astart, time.Since(astart),
			obs.Int("delta_rows", int64(n)))
	}

	recomputed, failed := 0, 0
	for _, v := range recompute {
		name := v.vs.name
		rctx, rstart := child(), time.Now()
		res, attempts, err := s.retryRefresh(s.baseCtx, rctx, "refresh of "+name, func() (*engine.Result, error) {
			return ep.Refresh(name)
		})
		if err != nil {
			s.stats.refreshFailures.Add(1)
			s.winRefreshFail.Add(time.Now().Unix(), 1)
			v.err = err
			failed++
			if rctx.Valid() {
				s.traceSpan(etr, rctx, "refresh.recompute", rstart, time.Since(rstart),
					obs.String("view", name), obs.Int("attempts", int64(attempts)),
					obs.String("outcome", "failed"), obs.String("error", err.Error()))
			}
			continue
		}
		if rctx.Valid() {
			s.traceSpan(etr, rctx, "refresh.recompute", rstart, time.Since(rstart),
				obs.String("view", name), obs.Int("attempts", int64(attempts)),
				obs.String("outcome", "ok"),
				obs.Int("reads", res.TotalReads()), obs.Int("writes", res.TotalWrites()))
		}
		recomputed++
		reads += res.TotalReads()
		writes += res.TotalWrites()
		s.observeAudit(costaudit.KindRecompute, name, res.TotalReads()+res.TotalWrites())
	}

	// The epoch's one publication. From the one maintainer, and dropping no view,
	// a refusal is a broken invariant: treated like any other aborted epoch.
	if err := ep.Commit(); err != nil {
		return fmt.Errorf("serve: publishing the epoch: %w", err)
	}
	// Landed: the watermark moves, what take handed this epoch is settled
	// (records and contexts staged while it ran stay for the next), and every
	// view settles — one hold of the registry lock.
	now = time.Now()
	land := LineageEntry{Epoch: epoch, LSNLo: floorLSN, LSNHi: ackLSN,
		DeltaRows: n, DeltaBatches: batches, TraceID: ectx.TraceID, At: now}
	var transitions []transition
	sc.mu.Lock()
	if ackLSN > sc.ackedLSN {
		sc.ackedLSN = ackLSN
	}
	sc.bufBatches -= batches
	sc.pendingTraces = sc.pendingTraces[len(traceRefs):]
	for _, v := range views {
		transitions = append(transitions, v.vs.settle(sc.breaker, v, land)...)
	}
	stale := sc.unappliedLocked(nil)
	health, unhealthy := sc.healthLocked(now)
	sc.mu.Unlock()
	// The one publication: readers were answered from the previous whole
	// state until here and from this one after. It carries the join point
	// that lets the next sampled query complete the epoch's causal chain.
	s.publish(epoch, ep.Relations(), health, &epochTraceLink{ctx: ectx, entry: etr})

	var breachedViews, tripped []string
	for _, tr := range transitions {
		if tr.slo {
			action := "recovered"
			if tr.violated {
				action = "violated"
				breachedViews = append(breachedViews, tr.view)
				s.stats.sloViolations.Add(1)
			}
			obs.Emit(s.obsv, obs.EvServeSLO,
				obs.String("view", tr.view),
				obs.String("action", action),
				obs.Int("lag_rows", int64(tr.lagRows)),
				obs.Int("stale_epochs", int64(tr.staleEpochs)))
			continue
		}
		if tr.to == BreakerOpen {
			tripped = append(tripped, tr.view)
		}
		obs.Emit(s.obsv, obs.EvServeBreaker,
			obs.String("view", tr.view),
			obs.String("from", tr.from.String()),
			obs.String("to", tr.to.String()),
			obs.String("reason", tr.reason))
	}
	if len(tripped) > 0 {
		s.stats.breakerTrips.Add(int64(len(tripped)))
	}

	// Forensic flight dumps: one per epoch per episode kind, taken after the
	// epoch's refresh (and deliberately-not-refreshed) spans landed in the
	// recorder, so the dump shows the recent past that led to the episode.
	// The transitions come in view-name order.
	if len(breachedViews) > 0 {
		s.dumpFlight("slo_breach",
			obs.Int("epoch", int64(epoch)),
			obs.String("views", strings.Join(breachedViews, ",")))
	}
	if len(tripped) > 0 {
		s.dumpFlight("breaker_open",
			obs.Int("epoch", int64(epoch)),
			obs.String("views", strings.Join(tripped, ",")))
	}

	s.stats.epochs.Add(1)
	s.stats.incRefreshes.Add(int64(incDone))
	s.stats.recomputes.Add(int64(recomputed))
	s.stats.refreshReads.Add(reads)
	s.stats.refreshWrites.Add(writes)
	s.stats.staleRows.Set(float64(stale))
	s.stats.unhealthy.Set(float64(unhealthy))

	if ectx.Valid() {
		// Stamp each contributor's ingest trace with the epoch that landed
		// it and close the epoch's own span tree.
		landed := time.Now()
		for _, ref := range traceRefs {
			s.traceSpan(ref.entry, ref.ctx.NewChild(), "epoch.landed", landed, 0,
				obs.Int("epoch", int64(epoch)),
				obs.Int("epoch_trace_id", int64(ectx.TraceID)))
		}
		s.traceSpan(etr, ectx, "serve.epoch", epochStart, time.Since(epochStart),
			obs.Int("epoch", int64(epoch)),
			obs.Int("delta_rows", int64(n)),
			obs.Int("delta_batches", int64(batches)),
			obs.Int("lsn_lo", int64(floorLSN)),
			obs.Int("lsn_hi", int64(ackLSN)),
			obs.Int("incremental", int64(incDone)),
			obs.Int("recomputed", int64(recomputed)),
			obs.Int("operands_evaluated", int64(whole)),
			obs.Int("operands_reused", int64(carried)))
	}

	obs.Emit(s.obsv, obs.EvServeEpoch,
		obs.Int("epoch", int64(epoch)),
		obs.Int("delta_rows", int64(n)),
		obs.Int("incremental", int64(incDone)),
		obs.Int("recomputed", int64(recomputed)),
		obs.Int("failed", int64(failed)),
		obs.Int("reads", reads),
		obs.Int("writes", writes),
		obs.Int("operands_evaluated", int64(whole)),
		obs.Int("operands_reused", int64(carried)),
		obs.Int("duration_us", time.Since(epochStart).Microseconds()))
	return nil
}

// enginePendingDeltas reports whether the engine holds pending deltas
// beyond the scheduler's own buffer (e.g. injected directly via the DB).
func (s *Server) enginePendingDeltas() bool {
	for _, name := range s.db.Tables() {
		if s.db.PendingDeltaRows(name) > 0 {
			return true
		}
	}
	return false
}
