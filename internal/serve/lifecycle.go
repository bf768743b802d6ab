package serve

import (
	"time"

	"github.com/warehousekit/mvpp/internal/core"
)

// The per-view lifecycle is one transition table with two halves (DESIGN
// §14). plan reads a view's facts and returns what an epoch does with it;
// it writes nothing, so hasWork asks it too. settle applies a landed
// epoch's outcome: it is the only writer of a view's lifecycle fields after
// construction, and it returns the epoch's transitions for one loop to emit
// after the publication. An epoch that is let go settles nothing. Every
// reader — Staleness, Health, the published health — derives from reading.

// viewState is the scheduler's registry entry for one maintained view.
type viewState struct {
	name     string
	strategy core.MaintenanceStrategy
	// rels is the set of base relations the view is computed from — the
	// fu-driven filter: an epoch only refreshes views whose relations
	// gained deltas.
	rels map[string]bool

	// policy decides *when* the scheduler refreshes the view; slo bounds how
	// far it may lag before queries degrade to base-relation plans.
	policy RefreshPolicy
	slo    FreshnessSLO

	epoch       uint64
	lastRefresh time.Time

	// lag counts rows already applied to the view's base relations that
	// the stored view does not reflect (a refresh failed after the apply,
	// or the policy deferred it);
	// failures/state/openedAt/lastErr are the circuit breaker: failures
	// counts consecutive persistent refresh failures, state the breaker
	// position (half-open only inside settle: an epoch's probe), openedAt
	// when it last opened.
	lag      int
	failures int
	state    BreakerState
	openedAt time.Time
	lastErr  string

	// building marks an in-flight refresh (set when an epoch plans one,
	// cleared when that epoch returns); forceRefresh is RefreshView's
	// one-shot override of policy, schedule, and breaker cooldown, consumed
	// by the epoch that lands it.
	building     bool
	forceRefresh bool

	// staleSince is when the view first fell behind (zero while caught up);
	// staleEpochs counts consecutive epochs ending with lag; sloViolated
	// latches the current SLO breach so each episode is counted once in
	// sloViolations.
	staleSince    time.Time
	staleEpochs   int
	sloViolated   bool
	sloViolations int64

	// lineage is the bounded history of epochs that produced this view's
	// contents (see lineage.go), newest last.
	lineage []LineageEntry
}

// policyDue reports whether the view's policy lets this epoch refresh it.
// Manual views are never due (only RefreshView forces them); scheduled views
// are due once the interval since their last refresh elapsed; on-commit and
// streaming views are always due.
func (vs *viewState) policyDue(now time.Time) bool {
	switch vs.policy.Kind {
	case PolicyManual:
		return false
	case PolicyScheduled:
		return vs.lastRefresh.IsZero() || now.Sub(vs.lastRefresh) >= vs.policy.Every
	default:
		return true
	}
}

// viewFacts is everything plan decides on.
type viewFacts struct {
	forced      bool // RefreshView asked for a refresh
	state       BreakerState
	cooling     bool // the breaker is open and its cooldown has not elapsed
	due         bool // the policy lets this epoch refresh the view
	lagging     bool // applied rows the view does not reflect
	affected    bool // this epoch lands deltas into the view's relations
	incremental bool // the view is maintained by delta propagation
}

// facts reads a view's facts for an epoch that does (affected) or does not
// land deltas into its relations. Caller holds the scheduler mutex.
func (vs *viewState) facts(p BreakerPolicy, affected bool, now time.Time) viewFacts {
	return viewFacts{
		forced:      vs.forceRefresh,
		state:       vs.state,
		cooling:     vs.state == BreakerOpen && now.Sub(vs.openedAt) < p.Cooldown,
		due:         vs.policyDue(now),
		lagging:     vs.lag > 0,
		affected:    affected,
		incremental: vs.strategy == core.MaintIncremental,
	}
}

// action is what one epoch does with one view.
type action uint8

const (
	actNone        action = iota // caught up and untouched
	actCool                      // open breaker cooling: no attempt, the lag grows
	actDefer                     // policy not due: the deltas land, the lag grows
	actIncremental               // delta propagation (recompute on fallback)
	actRecompute                 // full recomputation
	actProbe                     // cooled-down breaker: one half-open recompute
)

// refreshes reports whether the action runs a refresh.
func (a action) refreshes() bool { return a >= actIncremental }

// plan is the table's plan half, first matching row wins (DESIGN §14).
func plan(f viewFacts) action {
	switch {
	case f.forced:
		return actRecompute
	case f.cooling:
		return actCool
	case !f.due:
		// The deltas fold into the base tables anyway (never held hostage by
		// one view's policy) and the view accrues lag until its schedule
		// fires or RefreshView forces it.
		return actDefer
	case f.state != BreakerClosed:
		return actProbe
	case f.lagging:
		// A failed or deferred refresh left the view behind the base tables:
		// catch up by recomputation even if no new delta touches it.
		return actRecompute
	case !f.affected:
		return actNone
	case f.incremental:
		return actIncremental
	default:
		return actRecompute
	}
}

// viewEpoch is one view's part in one epoch: the plan, then the outcome of
// the refresh it ran (mode is its lineage mode, err its persistent failure).
type viewEpoch struct {
	vs      *viewState
	act     action
	forced  bool // the plan consumed RefreshView's force
	applied int  // rows this epoch folds into the view's relations
	mode    string
	err     error
}

// transition is one lifecycle edge of a landed epoch, emitted after its
// publication: a breaker move (from → to, for reason) or, when slo is set,
// an SLO episode edge (violated or recovered).
type transition struct {
	view     string
	from, to BreakerState
	reason   string

	slo, violated        bool
	lagRows, staleEpochs int
}

// settle is the table's settle half: it applies one landed epoch's outcome
// to the view and returns the edges it took. l is the epoch's lineage entry
// (all but the mode), which a refreshed view appends. Caller holds the
// scheduler mutex.
func (vs *viewState) settle(p BreakerPolicy, v viewEpoch, l LineageEntry) (edges []transition) {
	move := func(to BreakerState, reason string) {
		if vs.state != to {
			edges = append(edges, transition{view: vs.name, from: vs.state, to: to, reason: reason})
			vs.state = to
		}
	}
	if v.forced {
		vs.forceRefresh = false
	}
	if v.act == actProbe {
		move(BreakerHalfOpen, "cooldown elapsed")
	}
	switch {
	case !v.act.refreshes():
		vs.lag += v.applied
	case v.err == nil:
		move(BreakerClosed, "refresh succeeded")
		vs.failures, vs.lag, vs.lastErr = 0, 0, ""
		vs.epoch, vs.lastRefresh = l.Epoch, l.At
		vs.staleSince, vs.staleEpochs = time.Time{}, 0
		// This epoch's journal range now backs the view's contents. The
		// entry carries no fingerprint: the live digest is read from the
		// table (Lineage), and a checkpoint records one in the manifest only.
		l.Mode = v.mode
		vs.lineage = append(vs.lineage, l)
		if len(vs.lineage) > lineageKeep {
			vs.lineage = vs.lineage[len(vs.lineage)-lineageKeep:]
		}
	default:
		vs.failures++
		vs.lastErr = v.err.Error()
		vs.lag += v.applied
		if vs.state == BreakerHalfOpen || (vs.state == BreakerClosed && vs.failures >= p.FailureThreshold) {
			move(BreakerOpen, vs.lastErr)
			vs.openedAt = l.At
		}
	}
	// A view ending the epoch behind starts (or continues) a stale episode;
	// a breach flips the latch exactly once per episode.
	if vs.lag > 0 {
		if vs.staleSince.IsZero() {
			vs.staleSince = l.At
		}
		vs.staleEpochs++
	}
	if breached := vs.reading(p, l.At).breached; breached != vs.sloViolated {
		vs.sloViolated = breached
		if breached {
			vs.sloViolations++
		}
		edges = append(edges, transition{view: vs.name, slo: true, violated: breached,
			lagRows: vs.lag, staleEpochs: vs.staleEpochs})
	}
	return edges
}

// viewReading is what readers derive from a view's lifecycle fields at one
// instant: its status; whether its queries degrade to base relations (open
// breaker, staleness bound exceeded, or a breached freshness SLO); whether
// its SLO is breached; and, for a lagging view under a MaxLag SLO, when the
// wall clock alone breaches it.
type viewReading struct {
	status    ViewStatus
	degrading bool
	breached  bool
	breachAt  time.Time
}

// reading is the one per-view status function. A caught-up view (lag 0)
// never breaches its SLO, no matter how long ago it refreshed. Caller holds
// the scheduler mutex.
func (vs *viewState) reading(p BreakerPolicy, now time.Time) viewReading {
	var r viewReading
	if vs.lag > 0 && !vs.slo.zero() {
		if vs.slo.MaxLag > 0 {
			r.breachAt = vs.staleSince.Add(vs.slo.MaxLag)
		}
		r.breached = (vs.slo.MaxLagEpochs > 0 && vs.staleEpochs > vs.slo.MaxLagEpochs) ||
			(vs.slo.MaxLag > 0 && !vs.staleSince.IsZero() && now.After(r.breachAt))
	}
	r.degrading = vs.state != BreakerClosed || (p.StalenessBound > 0 && vs.lag > p.StalenessBound) || r.breached
	switch {
	case vs.building:
		r.status = StatusBuilding
	case vs.state != BreakerClosed:
		r.status = StatusError
	case vs.lag > 0 || r.breached:
		r.status = StatusStale
	default:
		r.status = StatusValid
	}
	return r
}

// healthLocked is the registry's part of a served state: the views degrading
// now (also counted) and the lagging ones a MaxLag SLO will flip by the wall
// clock alone — whatever else moves a view's health is an epoch or a swap,
// and those publish. Caller holds mu.
func (sc *scheduler) healthLocked(now time.Time) (health map[string]viewHealth, degrading int) {
	health = make(map[string]viewHealth)
	for name, vs := range sc.views {
		if r := vs.reading(sc.breaker, now); r.degrading {
			health[name] = viewHealth{degraded: true}
			degrading++
		} else if !r.breachAt.IsZero() {
			health[name] = viewHealth{breachAt: r.breachAt}
		}
	}
	return health, degrading
}
