package serve

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/obs"
)

// Advice is the advisor's proposal: what the Figure 9 heuristic would
// materialize for the workload as actually observed, against what the
// warehouse currently stores.
type Advice struct {
	// Observed is the measured per-query frequency, scaled so its sum
	// matches the design-time workload volume.
	Observed map[string]float64
	// Current and Proposed are the view sets (sorted names).
	Current, Proposed []string
	// Add, Drop, Keep decompose Proposed against Current.
	Add, Drop, Keep []string
	// CurrentTotal and ProposedTotal price both sets per period under the
	// observed frequencies (query processing + view maintenance, in block
	// accesses).
	CurrentTotal, ProposedTotal float64
	// SLOViolators lists currently maintained views whose freshness SLO is
	// breached at advice time (sorted) — chronic violators are re-selection
	// candidates: a view the scheduler cannot keep fresh under its policy
	// may not be worth materializing at all.
	SLOViolators []string

	selection *core.SelectionResult
}

// Changed reports whether the advisor proposes a different view set.
func (a *Advice) Changed() bool { return len(a.Add) > 0 || len(a.Drop) > 0 }

// ObservedFrequencies returns the workload frequencies the server has
// actually seen, scaled so their sum equals the design-time sum (keeping
// the query-vs-maintenance balance comparable to the design's). Before any
// query ran, the design-time frequencies are returned unchanged.
func (s *Server) ObservedFrequencies() map[string]float64 {
	out := make(map[string]float64, len(s.queries))
	var designed, observed float64
	for _, qs := range s.queries {
		designed += qs.spec.Frequency
		observed += float64(qs.observed.Load())
	}
	if observed == 0 {
		for name, qs := range s.queries {
			out[name] = qs.spec.Frequency
		}
		return out
	}
	scale := designed / observed
	for name, qs := range s.queries {
		out[name] = float64(qs.observed.Load()) * scale
	}
	return out
}

// Advise re-runs the paper's view selection under the observed query
// frequencies and reports what should change. It is a pure read — of the
// MVPP, the counters and the view registry — waits for no maintenance and
// does not touch the running warehouse; pass the advice to ApplyAdvice to
// act on it.
func (s *Server) Advise() (*Advice, error) {
	return s.adviseWith(s.ObservedFrequencies())
}

// adviseWith is the selection behind Advise and AdviseCalibrated: re-run
// Figure 9 under the given per-query frequencies and price the current set
// against the proposal.
func (s *Server) adviseWith(observed map[string]float64) (*Advice, error) {
	if s.mvpp == nil || s.model == nil {
		return nil, errors.New("serve: advisor needs an MVPP and a cost model in the config")
	}
	sel, err := s.mvpp.ReselectFrequencies(s.model, observed, s.selectOpts)
	if err != nil {
		return nil, err
	}
	current := s.Views()
	proposed := sel.Materialized.Names(s.mvpp)
	sort.Strings(proposed)

	curCosts, err := s.mvpp.EvaluateUnderFrequencies(s.model, observed, current)
	if err != nil {
		return nil, fmt.Errorf("serve: pricing current views under observed frequencies: %w", err)
	}

	a := &Advice{
		Observed:      observed,
		Current:       current,
		Proposed:      proposed,
		CurrentTotal:  curCosts.Total,
		ProposedTotal: sel.Costs.Total,
		selection:     sel,
	}
	curSet := make(map[string]bool, len(current))
	for _, name := range current {
		curSet[name] = true
	}
	propSet := make(map[string]bool, len(proposed))
	for _, name := range proposed {
		propSet[name] = true
		if curSet[name] {
			a.Keep = append(a.Keep, name)
		} else {
			a.Add = append(a.Add, name)
		}
	}
	for _, name := range current {
		if !propSet[name] {
			a.Drop = append(a.Drop, name)
		}
	}
	for name, st := range s.Staleness() {
		if st.SLOViolated {
			a.SLOViolators = append(a.SLOViolators, name)
		}
	}
	sort.Strings(a.SLOViolators)

	obs.Emit(s.obsv, obs.EvServeAdvice,
		obs.Int("add", int64(len(a.Add))),
		obs.Int("drop", int64(len(a.Drop))),
		obs.Int("keep", int64(len(a.Keep))),
		obs.Float("current_total", a.CurrentTotal),
		obs.Float("proposed_total", a.ProposedTotal))
	return a, nil
}

// ApplyAdvice hot-swaps the proposed view set into the running warehouse,
// all or nothing: in one engine epoch the added views materialize (in MVPP
// topological order, so stacked views see their inputs) and the dropped
// views disappear; a failed step lets the epoch go and nothing has changed.
// Otherwise the new set is committed, the registry adopts the proposal — a
// kept view keeps its entry, debt and history included: its stored rows are
// not touched — and the successor state is published: the next epoch number,
// the named plans rewritten over the new set and every audit prediction
// re-priced against it, an empty cache. In-flight queries are safe: each
// executes on the state it loaded.
func (s *Server) ApplyAdvice(a *Advice) error {
	if a == nil || a.selection == nil {
		return errors.New("serve: ApplyAdvice needs advice produced by Advise")
	}
	if s.mvpp == nil {
		return errors.New("serve: advisor needs an MVPP in the config")
	}
	return s.maintain(func() error { return s.applyAdviceLocked(a) })
}

// applyAdviceLocked is ApplyAdvice as the maintainer's turn.
func (s *Server) applyAdviceLocked(a *Advice) error {
	addSet := make(map[string]bool, len(a.Add))
	for _, name := range a.Add {
		addSet[name] = true
	}
	ep := s.db.BeginMaintenance()
	for _, v := range s.mvpp.Vertices {
		if !addSet[v.Name] {
			continue
		}
		if _, err := ep.Materialize(v.Name, v.Op); err != nil {
			return fmt.Errorf("serve: materializing %s: %w", v.Name, err)
		}
	}
	for _, name := range a.Drop {
		if err := ep.DropView(name); err != nil {
			return fmt.Errorf("serve: dropping %s: %w", name, err)
		}
	}

	// The scheduler's view registry for the new set: a kept view's entry as
	// it is, an added view's from the successor — clean under the defaults (it
	// was computed from the current base state).
	sc := s.sched
	views := make(map[string]*viewState, len(a.Proposed))
	epoch := s.state.Load().epoch + 1 // only the maintainer publishes
	stored := ep.Relations()
	for _, name := range a.Proposed {
		if vs, kept := sc.views[name]; kept {
			views[name] = vs
			continue
		}
		v, err := stored.View(name)
		if err != nil {
			return err
		}
		rels, err := baseRelationsOf(stored, v.Plan)
		if err != nil {
			return err
		}
		views[name] = &viewState{
			name: name, rels: rels, epoch: epoch,
			policy: sc.defaultPolicy.orDefault(RefreshPolicy{}),
			slo:    sc.defaultSLO,
		}
	}
	cleanupErr := ep.Commit()
	if cleanupErr != nil && s.db.Relations() != stored {
		return cleanupErr // refused: nothing was published
	}
	// Committed. The only error left is a dropped view's snapshot segments
	// failing to delete: the swap completes and returns it.
	sc.mu.Lock()
	for name, vs := range views {
		vs.strategy = a.selection.Plans[name]
	}
	sc.views = views
	health, _ := sc.healthLocked(time.Now())
	sc.mu.Unlock()
	s.publish(epoch, stored, health, nil)

	obs.Emit(s.obsv, obs.EvServeSwap,
		obs.Int("added", int64(len(a.Add))),
		obs.Int("dropped", int64(len(a.Drop))),
		obs.Int("epoch", int64(epoch)))
	return cleanupErr
}
