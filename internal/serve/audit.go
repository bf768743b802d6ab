package serve

// The cost-accountability plane of the serving layer. The server carries a
// costaudit.Ledger (Config.Audit; nil disables auditing entirely): every
// query class and every maintained view gets a §4.1 predicted block-access
// cost registered against it, every cache-miss execution and view refresh
// reports its measured block I/O, and the ledger's EWMA calibration ratios
// tell whether the design is still priced right. When a view's ratio
// drifts outside the calibration band, the advisor re-runs the paper's
// Figure 9 selection with recalibrated weights — observability feeding
// design, not just reporting.

import (
	"fmt"
	"math"
	"strings"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/costaudit"
	"github.com/warehousekit/mvpp/internal/obs"
)

// Calibration-ratio clamp for recalibrated advisor weights: a query's
// observed frequency is scaled by its calibration ratio bounded to
// [minRecalWeight, maxRecalWeight], so one wildly misestimated query
// cannot dominate the re-selection.
const (
	minRecalWeight = 0.25
	maxRecalWeight = 4.0
)

// viewSkew is the prediction multiplier for one view's refresh entries:
// the global test skew times any per-view skew — so a drift-precision
// test can move one operator's cost constants while the rest stay true.
func (s *Server) viewSkew(name string) float64 {
	k := s.auditSkew
	if m, ok := s.auditSkewViews[name]; ok && m > 0 {
		k *= m
	}
	return k
}

// repriceAudit registers fresh §4.1 predictions for every workload query
// (priced over its rewritten plan in st) and every materialized view's
// recomputation, against statistics of st's relation set — views included,
// since rewritten plans scan them by name — and returns the pricer that made
// them. Called by publish for a state whose view-set generation is new: at
// construction and after every advice swap. Entries that fail to price
// keep their previous prediction (or none); their observations still
// count samples but never flag drift.
func (s *Server) repriceAudit(st *served) *costaudit.Pricer {
	if s.audit == nil {
		return nil
	}
	cat, err := st.rels.Catalog(true)
	if err != nil {
		return nil
	}
	est := cost.NewEstimator(cat, cost.DefaultOptions())
	// The engine executes operator-at-a-time with block nested loops, so
	// the audit prices with the same discipline regardless of the design
	// model: the ratio then measures estimation error, not model mismatch.
	pricer := costaudit.NewPricer(est, &cost.BlockNLJModel{})
	for name, qs := range s.queries {
		c, err := pricer.PlanCost(st.plans[qs.slot].Plan)
		if err != nil {
			continue
		}
		s.audit.Predict(costaudit.KindQuery, name, c*s.auditSkew)
	}
	for _, name := range st.rels.Views() {
		v, _ := st.rels.View(name) // listed by the same set
		c, err := pricer.PlanCost(v.Plan)
		if err != nil {
			continue
		}
		s.audit.Predict(costaudit.KindRecompute, name, c*s.viewSkew(name))
	}
	return pricer
}

// predictIncremental registers this epoch's delta-propagation price for
// each view about to refresh incrementally, derived from the actual pending
// delta fractions (Δrows / stored rows per base relation; pending is the
// engine epoch's frozen row count per dirty table). Runs inside the epoch,
// before the refreshes execute.
func (s *Server) predictIncremental(names []string, pending map[string]int) {
	pricer := s.state.Load().pricer
	if pricer == nil || len(names) == 0 {
		return
	}
	frac := make(map[string]float64)
	rels := s.db.Relations()
	for table, p := range pending {
		if t, err := rels.Table(table); err == nil && t.NumRows() > 0 {
			frac[table] = float64(p) / float64(t.NumRows())
		}
	}
	if len(frac) == 0 {
		return
	}
	de := cost.NewDeltaEstimator(pricer.Estimator(), cost.DeltaSpec{PerRelation: frac})
	for _, name := range names {
		v, err := rels.View(name)
		if err != nil {
			continue
		}
		c, ok, err := de.MaintenanceCost(pricer.Model(), v.Plan)
		if err != nil || !ok || math.IsInf(c, 0) {
			continue
		}
		s.audit.Predict(costaudit.KindIncremental, name, c*s.viewSkew(name))
	}
}

// observeAudit records one measured actual (block reads + writes) in the
// ledger and surfaces newly detected drift as an event.
func (s *Server) observeAudit(kind costaudit.Kind, name string, actual int64) {
	if s.audit == nil {
		return
	}
	o := s.audit.Observe(kind, name, float64(actual))
	s.stats.costObservations.Add(1)
	if o.NewlyDrifted {
		s.stats.costDrifts.Add(1)
		obs.Emit(s.obsv, obs.EvCostDrift,
			obs.String("kind", string(kind)),
			obs.String("name", name),
			obs.Float("ratio", o.Ratio))
	}
}

// recalibrateLocked closes the accountability loop: when a view's
// calibration ratio has drifted out of the band, the advisor re-runs
// Figure 9 selection with recalibrated weights and records the advice
// (LastRecalibration); applying it is the operator's call. A step of the
// maintainer's turn, after each epoch. Each drift episode triggers once — a
// view stays latched until its entries recover, so a persistently drifted
// view does not re-advise every epoch.
func (s *Server) recalibrateLocked() {
	if s.audit == nil {
		return
	}
	drifted := s.audit.DriftedViews()
	set := make(map[string]bool, len(drifted))
	for _, name := range drifted {
		set[name] = true
	}
	for name := range s.recalHandled {
		if !set[name] {
			delete(s.recalHandled, name) // recovered: a future drift is a new episode
		}
	}
	var fresh []string
	for _, name := range drifted {
		if !s.recalHandled[name] {
			fresh = append(fresh, name)
		}
	}
	if len(fresh) == 0 || s.mvpp == nil || s.model == nil {
		return
	}
	a, err := s.AdviseCalibrated()
	if err != nil {
		return // not latched: the next epoch retries the re-selection
	}
	for _, name := range fresh {
		s.recalHandled[name] = true
	}
	s.lastRecal.Store(a)
	s.stats.recalibrations.Add(1)
	obs.Emit(s.obsv, obs.EvServeRecalibrated,
		obs.String("views", strings.Join(fresh, ",")),
		obs.Float("current_total", a.CurrentTotal),
		obs.Float("proposed_total", a.ProposedTotal))
}

// AdviseCalibrated re-runs the paper's view selection under observed
// frequencies recalibrated by the ledger: each query's frequency is scaled
// by its EWMA calibration ratio (clamped to [0.25, 4]), so fq × predicted
// approximates fq × actual — the Figure 9 weights re-anchored to measured
// behavior. Falls back to plain observed frequencies for queries without a
// calibrated entry.
func (s *Server) AdviseCalibrated() (*Advice, error) {
	observed := s.ObservedFrequencies()
	if s.audit != nil {
		for name := range observed {
			if e, ok := s.audit.Lookup(costaudit.KindQuery, name); ok && e.Ratio > 0 {
				observed[name] *= math.Min(maxRecalWeight, math.Max(minRecalWeight, e.Ratio))
			}
		}
	}
	return s.adviseWith(observed)
}

// CostReport snapshots the cost-accountability ledger (empty when auditing
// is disabled).
func (s *Server) CostReport() costaudit.Report { return s.audit.Snapshot() }

// LastRecalibration returns the advice produced by the most recent
// drift-triggered re-selection (nil if none fired yet).
func (s *Server) LastRecalibration() *Advice { return s.lastRecal.Load() }

// Explain renders the named workload query's plan as the server runs it
// right now — the served rewrite over the materialized views — priced per
// operator by the audit pricer and annotated with the ledger's observed
// actuals for the query class and for every view the plan reads.
func (s *Server) Explain(name string) (string, error) {
	qs, ok := s.queries[name]
	if !ok {
		return "", fmt.Errorf("serve: unknown query %q", name)
	}
	st := s.state.Load()
	plan, pricer := st.plans[qs.slot].Plan, st.pricer

	var b strings.Builder
	fmt.Fprintf(&b, "query %s\n", name)
	if e, ok := s.audit.Lookup(costaudit.KindQuery, name); ok {
		fmt.Fprintf(&b, "%s\n", formatEntry(e))
	} else if s.audit == nil {
		b.WriteString("cost audit disabled\n")
	}

	line := func(n algebra.Node) string {
		lbl := n.Label()
		if pricer != nil {
			if c, err := pricer.OpCost(n); err == nil {
				if est, err := pricer.Estimator().Estimate(n); err == nil {
					lbl = fmt.Sprintf("%s  — op %s blocks, est %.0f rows / %.1f blocks",
						lbl, trimFloat(c), est.Rows, est.Blocks)
				}
			}
		}
		if scan, ok := n.(*algebra.Scan); ok {
			for _, kind := range []costaudit.Kind{costaudit.KindRecompute, costaudit.KindIncremental} {
				if e, ok := s.audit.Lookup(kind, scan.Relation); ok && e.Samples > 0 {
					lbl += fmt.Sprintf("  [%s refresh ×%.2f/%d]", e.Kind, e.Ratio, e.Samples)
				}
			}
		}
		return lbl
	}
	b.WriteString(line(plan))
	b.WriteByte('\n')
	var walk func(n algebra.Node, prefix string)
	walk = func(n algebra.Node, prefix string) {
		children := n.Children()
		for i, c := range children {
			branch, next := "├── ", prefix+"│   "
			if i == len(children)-1 {
				branch, next = "└── ", prefix+"    "
			}
			b.WriteString(prefix + branch + line(c) + "\n")
			walk(c, next)
		}
	}
	walk(plan, "")
	return b.String(), nil
}

// formatEntry renders one ledger entry as the one-line summary both
// Explain and the CLIs print.
func formatEntry(e costaudit.Entry) string {
	drift := ""
	if e.Drifted {
		drift = "  DRIFTED"
	}
	return fmt.Sprintf("predicted %s blocks · last actual %s · mean %.1f · calibration ×%.2f over %d samples%s",
		trimFloat(e.PredictedBlocks), trimFloat(e.LastActualBlocks), e.MeanActualBlocks,
		e.Ratio, e.Samples, drift)
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", f), "0"), ".")
}
