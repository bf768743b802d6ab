package serve

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// lifecycleConfig is one server configuration of the lifecycle cage: both
// views under one policy and one SLO, one breaker.
type lifecycleConfig struct {
	policy    RefreshPolicy
	threshold int
	cooldown  time.Duration
	slo       FreshnessSLO
}

func (c lifecycleConfig) String() string {
	return fmt.Sprintf("%s,t%d,%s,slo%d", c.policy, c.threshold, c.cooldown, c.slo.MaxLagEpochs)
}

// lifecycleConfigs is every combination the cage runs: three policies, a
// breaker tripping on the first or the second failure and cooling for a
// nanosecond (probed by the next epoch) or an hour (never probed), and no
// SLO or an epoch-budget one. No wall-clock bound: every row is determined
// by the schedule.
func lifecycleConfigs() []lifecycleConfig {
	var out []lifecycleConfig
	for _, p := range []RefreshPolicy{OnCommitPolicy(), ManualPolicy(), ScheduledPolicy(time.Hour)} {
		for _, threshold := range []int{1, 2} {
			for _, cooldown := range []time.Duration{time.Nanosecond, time.Hour} {
				for _, slo := range []FreshnessSLO{{}, {MaxLagEpochs: 2}} {
					out = append(out, lifecycleConfig{policy: p, threshold: threshold, cooldown: cooldown, slo: slo})
				}
			}
		}
	}
	return out
}

// lifecycleSchedules are the cage's step sequences. Steps:
//
//	+t  ingest a delta pair touching tmp2 (Division + Product)
//	+c  ingest a Customer row touching custla
//	+tc both
//	F   Flush
//	R   RefreshView("tmp2")
//	A   RefreshAllViews
//	xr  arm refresh faults (recompute and incremental, every attempt)
//	xa  arm apply_deltas faults (every attempt: the epoch is let go)
//	ok  disarm
var lifecycleSchedules = []string{
	"+t F +c F +tc F",
	"+tc F F R F A F",
	"xr +tc F F F ok F F",
	"xr +t F F F F F F",
	"xr +tc F F ok F xa +t F ok F",
	"xr +t F F xa +t F ok F F",
	"xa +tc F F ok F F",
	"xa +t F R ok F",
	"xr +tc F R A ok R A F",
	"+c xr F +t F ok +c F",
	"xr +tc F xa F ok F",
	"+t F xr +t F +c F ok F",
	"xa +tc R A ok A",
	"xr A A ok A F",
	"+tc xr F ok xa +c F ok F R",
	"xr +tc F F xa F F ok F F",
}

// runLifecycle runs one schedule on a fresh serveFixture star under cfg and
// returns one row per step: the step and its error, Epoch(), the Stats
// counters Epochs / BreakerTrips / SLOViolations / RefreshFailures, each
// view's Staleness (without LastRefresh) checked against its Health, and the
// serve.breaker / serve.slo events the step emitted.
func runLifecycle(t *testing.T, cfg lifecycleConfig, schedule string) []string {
	inj := fault.New(1, nil)
	o := newEventObserver()
	policies := map[string]RefreshPolicy{"tmp2": cfg.policy, "custla": cfg.policy}
	slos := map[string]FreshnessSLO{"tmp2": cfg.slo, "custla": cfg.slo}
	s, db := policyFixture(t, Config{
		DeltaBatch: 1 << 20,
		Retry:      fastRetry,
		Breaker:    BreakerPolicy{FailureThreshold: cfg.threshold, Cooldown: cfg.cooldown},
		Injector:   inj,
		Obs:        o,
	}, policies, slos)
	db.SetInjector(inj)
	defer s.Close()

	var rows []string
	seen := 0
	for i, step := range strings.Fields(schedule) {
		key := int64(i)
		var err error
		switch step {
		case "+t", "+c", "+tc":
			if strings.Contains(step, "t") {
				div, prod := deltaPair(key)
				if err = s.Ingest("Division", div); err == nil {
					err = s.Ingest("Product", prod)
				}
			}
			if err == nil && strings.Contains(step, "c") {
				err = s.Ingest("Customer", custDelta(key))
			}
		case "F":
			err = s.Flush()
		case "R":
			err = s.RefreshView("tmp2")
		case "A":
			err = s.RefreshAllViews()
		case "xr":
			inj.SetRule(fault.SiteEngineRefresh, fault.Rule{ErrProb: 1})
			inj.SetRule(fault.SiteEngineIncrementalRefresh, fault.Rule{ErrProb: 1})
		case "xa":
			inj.SetRule(fault.SiteEngineApplyDeltas, fault.Rule{ErrProb: 1})
		case "ok":
			inj.Disarm()
		default:
			t.Fatalf("unknown step %q", step)
		}
		st := s.Stats()
		row := fmt.Sprintf("%-3s %-3s epoch %d | E%d T%d S%d X%d",
			step, lifecycleErr(err), s.Epoch(), st.Epochs, st.BreakerTrips, st.SLOViolations, st.RefreshFailures)
		health := s.Health()
		for _, name := range []string{"tmp2", "custla"} {
			row += " | " + lifecycleView(name, s.Staleness()[name], health[name])
		}
		o.mu.Lock()
		events := o.events[seen:]
		seen = len(o.events)
		o.mu.Unlock()
		var edges []string
		for _, e := range events {
			switch e.kind {
			case obs.EvServeBreaker:
				edges = append(edges, fmt.Sprintf("breaker %s %s>%s (%s)",
					e.attrs["view"], e.attrs["from"], e.attrs["to"], lifecycleReason(e.attrs["reason"])))
			case obs.EvServeSLO:
				edges = append(edges, fmt.Sprintf("slo %s %s lag=%d se=%d",
					e.attrs["view"], e.attrs["action"], e.attrs["lag_rows"], e.attrs["stale_epochs"]))
			}
		}
		// Views settle in registry order; one view's edges keep theirs.
		sort.SliceStable(edges, func(i, j int) bool { return lifecycleEdgeKey(edges[i]) < lifecycleEdgeKey(edges[j]) })
		if len(edges) > 0 {
			row += " | " + strings.Join(edges, "; ")
		}
		rows = append(rows, row)
	}
	return rows
}

// lifecycleView renders one view's Staleness in a row; a Health that
// disagrees with it is spelled out after it.
func lifecycleView(name string, st Staleness, h ViewHealth) string {
	out := fmt.Sprintf("%s %s/%s e%d p%d l%d f%d se%d v%d",
		name, st.Status, st.Breaker, st.Epoch, st.PendingRows, st.LagRows,
		st.ConsecutiveFailures, st.StaleEpochs, st.SLOViolations)
	if st.Degrading {
		out += " deg"
	}
	if st.SLOViolated {
		out += " slo!"
	}
	if st.LastError != "" {
		out += " err=" + lifecycleReason(st.LastError)
	}
	if h.State.String() != st.Breaker || h.ConsecutiveFailures != st.ConsecutiveFailures ||
		h.LagRows != st.LagRows || h.Degrading != st.Degrading || h.LastError != st.LastError {
		out += fmt.Sprintf(" HEALTH%+v", h)
	}
	return out
}

// lifecycleEdgeKey is an event row's kind and view.
func lifecycleEdgeKey(edge string) string {
	f := strings.Fields(edge)
	return f[0] + " " + f[1]
}

// lifecycleErr shortens a step's error to the fault site that caused it.
func lifecycleErr(err error) string {
	if err == nil {
		return "-"
	}
	return "!" + lifecycleReason(err.Error())
}

// lifecycleReason shortens an injected failure to its site; other text
// stays as it is.
func lifecycleReason(v any) string {
	s := fmt.Sprint(v)
	if _, site, ok := strings.Cut(s, "injected failure at "); ok {
		return site
	}
	return s
}

// TestViewLifecycleSchedules is the lifecycle cage: every schedule under
// every configuration, one row per step, against
// testdata/lifecycle_schedules.golden. Configurations that produce the same
// rows share one block. Rerun with -update to accept a change; every
// changed row must be explained by the change under review.
func TestViewLifecycleSchedules(t *testing.T) {
	configs := lifecycleConfigs()
	runs := make([][][]string, len(lifecycleSchedules)) // [schedule][config]rows
	for i := range runs {
		runs[i] = make([][]string, len(configs))
	}
	for c, cfg := range configs {
		t.Run(cfg.String(), func(t *testing.T) {
			for i, schedule := range lifecycleSchedules {
				runs[i][c] = runLifecycle(t, cfg, schedule)
			}
		})
	}
	if t.Failed() {
		return
	}

	var b bytes.Buffer
	for i, schedule := range lifecycleSchedules {
		fmt.Fprintf(&b, "schedule %s\n", schedule)
		var order []string
		groups := make(map[string][]string)
		for c, cfg := range configs {
			key := strings.Join(runs[i][c], "\n")
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], cfg.String())
		}
		for _, key := range order {
			fmt.Fprintf(&b, "  configs %s\n", strings.Join(groups[key], " "))
			for _, row := range strings.Split(key, "\n") {
				fmt.Fprintf(&b, "    %s\n", row)
			}
		}
	}

	path := filepath.Join("testdata", "lifecycle_schedules.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(wantLines); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("lifecycle rows diverged from %s at line %d:\n got: %s\nwant: %s\n(rerun with -update to accept)",
					path, i+1, g, w)
			}
		}
	}
}

// lifecyclePlanTable is DESIGN §14's plan table; the first matching row
// wins. A pattern spells the facts forced, cooling, due, closed (breaker),
// lagging, affected (a delta lands in the view's relations) and incremental
// (strategy), in that order: 1 yes, 0 no, * either.
var lifecyclePlanTable = []struct {
	pattern string
	act     action
}{
	{"1******", actRecompute},
	{"01*****", actCool},
	{"000****", actDefer},
	{"0010***", actProbe},
	{"00111**", actRecompute},
	{"001100*", actNone},
	{"0011011", actIncremental},
	{"0011010", actRecompute},
}

// rowMatches reports whether a table row's pattern (1 yes, 0 no, * either)
// matches the facts, in order.
func rowMatches(pattern string, facts ...bool) bool {
	for i, f := range facts {
		if c := pattern[i]; c != '*' && (c == '1') != f {
			return false
		}
	}
	return true
}

// planRow returns the action of the first plan-table row matching f, and
// whether one did.
func planRow(f viewFacts) (action, bool) {
	for _, row := range lifecyclePlanTable {
		if rowMatches(row.pattern, f.forced, f.cooling, f.due, f.state == BreakerClosed, f.lagging, f.affected, f.incremental) {
			return row.act, true
		}
	}
	return actNone, false
}

// lifecycleSettleTable is DESIGN §14's settle table: per action and
// outcome, what a landed epoch does to the view's lag, consecutive
// failures and breaker. lag "+" grows by the applied rows, "0" clears;
// failures "=" stays, "0" clears, "+1" counts one more; breaker "=" stays,
// "closed" closes, "trip" opens a closed breaker at FailureThreshold, "open"
// re-opens the probed one. A probe passes through half-open first.
var lifecycleSettleTable = []struct {
	acts                   []action
	outcome                string // "-" no refresh ran, "ok", "failed"
	lag, failures, breaker string
}{
	{[]action{actNone, actCool, actDefer}, "-", "+", "=", "="},
	{[]action{actIncremental, actRecompute}, "ok", "0", "0", "closed"},
	{[]action{actIncremental, actRecompute}, "failed", "+", "+1", "trip"},
	{[]action{actProbe}, "ok", "0", "0", "closed"},
	{[]action{actProbe}, "failed", "+", "+1", "open"},
}

// lifecycleStatusTable is DESIGN §14's status table, first matching row
// wins: building, breaker closed, behind (lag or a breached SLO).
var lifecycleStatusTable = []struct {
	pattern string
	status  ViewStatus
}{
	{"1**", StatusBuilding},
	{"00*", StatusError},
	{"011", StatusStale},
	{"010", StatusValid},
}

func statusRow(building, closed, behind bool) ViewStatus {
	for _, row := range lifecycleStatusTable {
		if rowMatches(row.pattern, building, closed, behind) {
			return row.status
		}
	}
	panic("status table is not total")
}

// TestViewLifecycleTable checks the two halves of the lifecycle against the
// tables DESIGN §14 lists: plan over every combination of its facts; facts
// and plan, and hasWork, over every combination of a view's inputs, writing
// nothing; settle over every action a reachable view plans × every outcome;
// and the status each settled state reports.
func TestViewLifecycleTable(t *testing.T) {
	for bits := 0; bits < 1<<6; bits++ {
		for _, state := range []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen} {
			f := viewFacts{
				forced: bits&1 != 0, cooling: bits&2 != 0, due: bits&4 != 0, lagging: bits&8 != 0,
				affected: bits&16 != 0, incremental: bits&32 != 0, state: state,
			}
			want, ok := planRow(f)
			if !ok {
				t.Fatalf("no plan-table row matches %+v", f)
			}
			if got := plan(f); got != want {
				t.Errorf("plan(%+v) = %d, the table says %d", f, got, want)
			}
		}
	}

	p := BreakerPolicy{FailureThreshold: 2, Cooldown: time.Hour}
	empty := &Server{db: engine.NewDB(engine.DefaultBlockRows)} // nothing ingested
	now := time.Now()
	land := LineageEntry{Epoch: 7, LSNLo: 3, LSNHi: 9, DeltaRows: 3, DeltaBatches: 1, TraceID: 5, At: now}
	policies := []RefreshPolicy{OnCommitPolicy(), ManualPolicy(), ScheduledPolicy(time.Hour)}
	states := []string{"closed", "cooling", "cooled"}
	rows := make(map[int]int) // settle-table row → settles that hit it
	for bits := 0; bits < 1<<5; bits++ {
		for _, policy := range policies {
			for _, state := range states {
				for _, failures := range []int{0, 1, 2} {
					if (state == "closed") != (failures < p.FailureThreshold) {
						continue // a breaker is open exactly at the threshold
					}
					forced, lagging, incremental, affected, refreshed := bits&1 != 0, bits&2 != 0, bits&4 != 0, bits&8 != 0, bits&16 != 0
					vs := &viewState{
						name: "v", rels: map[string]bool{"R": true}, policy: policy,
						slo: FreshnessSLO{MaxLagEpochs: 1}, forceRefresh: forced, failures: failures,
						strategy: core.MaintRecompute,
					}
					if incremental {
						vs.strategy = core.MaintIncremental
					}
					if lagging {
						vs.lag, vs.staleEpochs, vs.staleSince = 2, 1, now.Add(-time.Minute)
					}
					if refreshed {
						vs.lastRefresh = now.Add(-time.Minute)
					}
					switch state {
					case "cooling":
						vs.state, vs.openedAt = BreakerOpen, now.Add(-time.Minute)
					case "cooled":
						vs.state, vs.openedAt = BreakerOpen, now.Add(-2*time.Hour)
					}
					if failures > 0 {
						vs.lastErr = "earlier failure"
					}
					before := *vs

					// Plan writes nothing; hasWork asks plan with no delta landing.
					f := vs.facts(p, affected, now)
					act := plan(f)
					sc := &scheduler{s: empty, breaker: p, views: map[string]*viewState{"v": vs}}
					work := sc.hasWork()
					if !reflect.DeepEqual(*vs, before) {
						t.Fatalf("planning %+v wrote %+v", before, *vs)
					}
					if want := plan(vs.facts(p, false, time.Now())).refreshes(); work != want {
						t.Errorf("hasWork = %v for %+v, plan says %v", work, before, want)
					}
					if want, _ := planRow(f); act != want {
						t.Errorf("plan of %+v (affected %v) = %d, the table says %d", before, affected, act, want)
					}

					applied := 0
					if affected {
						applied = 3
					}
					outcomes := []string{"-"}
					if act.refreshes() {
						outcomes = []string{"ok", "failed"}
					}
					for _, outcome := range outcomes {
						*vs = before
						v := viewEpoch{vs: vs, act: act, forced: f.forced, applied: applied, mode: "recompute"}
						if outcome == "failed" {
							v.err = errors.New("refresh failed")
						}
						edges := vs.settle(p, v, land)
						rows[checkSettleRow(t, before, *vs, v, outcome, edges, p, land)]++
					}
				}
			}
		}
	}
	for i, row := range lifecycleSettleTable {
		if rows[i] == 0 {
			t.Errorf("no reachable view settles by the row %+v", row)
		}
	}
}

// checkSettleRow asserts that one settle is a row of the settle table, that
// its stale episode, SLO latch and force follow the table's notes, and that
// the settled view reports the status the status table lists. It returns
// the row's index.
func checkSettleRow(t *testing.T, before, after viewState, v viewEpoch, outcome string,
	edges []transition, p BreakerPolicy, l LineageEntry) int {
	t.Helper()
	index := -1
	for i, r := range lifecycleSettleTable {
		if r.outcome == outcome && slices.Contains(r.acts, v.act) {
			index = i
		}
	}
	if index < 0 {
		t.Fatalf("no settle-table row for action %d, outcome %s", v.act, outcome)
	}
	row := lifecycleSettleTable[index]
	ctx := fmt.Sprintf("settle of action %d, outcome %s, from %+v", v.act, outcome, before)

	wantLag := before.lag + v.applied
	if row.lag == "0" {
		wantLag = 0
	}
	wantFailures := map[string]int{"=": before.failures, "0": 0, "+1": before.failures + 1}[row.failures]
	wantState, wantOpened := before.state, before.openedAt
	var wantEdges []string
	if v.act == actProbe {
		wantEdges = append(wantEdges, "open>half-open")
	}
	switch row.breaker {
	case "closed":
		wantState = BreakerClosed
		if before.state != BreakerClosed {
			wantEdges = append(wantEdges, map[bool]string{true: "half-open", false: "open"}[v.act == actProbe]+">closed")
		}
	case "trip":
		if before.state == BreakerClosed && wantFailures >= p.FailureThreshold {
			wantState, wantOpened = BreakerOpen, l.At
			wantEdges = append(wantEdges, "closed>open")
		}
	case "open":
		wantState, wantOpened = BreakerOpen, l.At
		wantEdges = append(wantEdges, "half-open>open")
	}
	if after.lag != wantLag || after.failures != wantFailures || after.state != wantState || !after.openedAt.Equal(wantOpened) {
		t.Errorf("%s: lag %d failures %d breaker %s opened %v, the table says %d / %d / %s / %v",
			ctx, after.lag, after.failures, after.state, after.openedAt, wantLag, wantFailures, wantState, wantOpened)
	}
	var gotEdges []string
	var sloEdges int
	for _, e := range edges {
		if e.slo {
			sloEdges++
			continue
		}
		gotEdges = append(gotEdges, e.from.String()+">"+e.to.String())
	}
	if !reflect.DeepEqual(gotEdges, wantEdges) {
		t.Errorf("%s: breaker edges %v, the table says %v", ctx, gotEdges, wantEdges)
	}

	succeeded := outcome == "ok"
	if succeeded {
		if after.epoch != l.Epoch || !after.lastRefresh.Equal(l.At) || after.lastErr != "" ||
			len(after.lineage) != len(before.lineage)+1 || after.lineage[len(after.lineage)-1].LSNHi != l.LSNHi {
			t.Errorf("%s: a landed refresh did not stamp the view: %+v", ctx, after)
		}
	} else if after.epoch != before.epoch || !after.lastRefresh.Equal(before.lastRefresh) || len(after.lineage) != len(before.lineage) {
		t.Errorf("%s: a view that did not refresh was stamped: %+v", ctx, after)
	}
	if outcome == "failed" && after.lastErr != v.err.Error() {
		t.Errorf("%s: lastErr %q, want the failure", ctx, after.lastErr)
	}
	// The stale episode: a view ending the epoch behind counts one more
	// stale epoch; a refreshed one starts over.
	wantStale := before.staleEpochs
	if succeeded {
		wantStale = 0
	}
	if wantLag > 0 {
		wantStale++
	}
	if after.staleEpochs != wantStale || (wantLag > 0) == after.staleSince.IsZero() {
		t.Errorf("%s: stale epochs %d since %v, want %d", ctx, after.staleEpochs, after.staleSince, wantStale)
	}
	breached := wantLag > 0 && wantStale > before.slo.MaxLagEpochs
	if after.sloViolated != breached || (sloEdges == 1) != (breached != before.sloViolated) || sloEdges > 1 {
		t.Errorf("%s: SLO latch %v with %d edges, want %v", ctx, after.sloViolated, sloEdges, breached)
	}
	if after.forceRefresh != (before.forceRefresh && !v.forced) {
		t.Errorf("%s: force %v after, planned forced %v", ctx, after.forceRefresh, v.forced)
	}

	for _, building := range []bool{false, true} {
		after.building = building
		r := after.reading(p, l.At)
		if want := statusRow(building, after.state == BreakerClosed, after.lag > 0 || r.breached); r.status != want {
			t.Errorf("%s: status %s (building %v), the status table says %s", ctx, r.status, building, want)
		}
	}
	return index
}

// TestPendingRowsAreUnappliedRows: a view's PendingRows is what is ingested
// into its relations and not yet applied, whatever the last epoch did with
// the view — failed, tripped, cooling — and rows staged by an epoch that was
// let go still count. serve.stale_rows is the same count over every table,
// each row once.
func TestPendingRowsAreUnappliedRows(t *testing.T) {
	inj := fault.New(1, fault.Plan{
		fault.SiteEngineRefresh:            {ErrProb: 1},
		fault.SiteEngineIncrementalRefresh: {ErrProb: 1},
	})
	o := newEventObserver()
	s, db := serveFixture(t, Config{
		DeltaBatch: 1 << 20,
		Retry:      fastRetry,
		Breaker:    BreakerPolicy{FailureThreshold: 2, Cooldown: time.Hour},
		Injector:   inj,
		Obs:        o,
	})
	db.SetInjector(inj)
	staleRows := func() int { return int(o.reg.Gauge(obs.GaugeServeStaleRows).Value()) }
	ingestPair := func(i int64) {
		t.Helper()
		div, prod := deltaPair(i)
		if err := s.Ingest("Division", div); err != nil {
			t.Fatal(err)
		}
		if err := s.Ingest("Product", prod); err != nil {
			t.Fatal(err)
		}
	}

	// Four landed epochs while tmp2's refreshes fail: closed, tripped, then
	// cooling. Each lands the pair ingested before it.
	for i := int64(1); i <= 4; i++ {
		ingestPair(i)
		if got := s.Staleness()["tmp2"].PendingRows; got != 2 || staleRows() != 2 {
			t.Fatalf("epoch %d: tmp2 pending %d, stale_rows %d before it; want 2, 2", i, got, staleRows())
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st := s.Staleness()["tmp2"]
		if st.PendingRows != 0 || staleRows() != 0 || st.LagRows != 2*int(i) {
			t.Errorf("after epoch %d (tmp2 %s): pending %d, stale_rows %d, lag %d; want 0, 0, %d",
				i, st.Breaker, st.PendingRows, staleRows(), st.LagRows, 2*i)
		}
	}

	// An epoch let go: its staged rows are still ingested and not applied.
	inj.Disarm()
	inj.SetRule(fault.SiteEngineApplyDeltas, fault.Rule{ErrProb: 1})
	ingestPair(5)
	if err := s.Ingest("Customer", custDelta(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Flush with ApplyDeltas failing returned %v", err)
	}
	st := s.Staleness()
	if st["tmp2"].PendingRows != 2 || st["custla"].PendingRows != 1 || staleRows() != 3 {
		t.Errorf("after the aborted epoch: tmp2 pending %d, custla pending %d, stale_rows %d; want 2, 1, 3",
			st["tmp2"].PendingRows, st["custla"].PendingRows, staleRows())
	}
	inj.Disarm()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st = s.Staleness()
	if st["tmp2"].PendingRows != 0 || st["custla"].PendingRows != 0 || staleRows() != 0 {
		t.Errorf("after the retry landed: tmp2 pending %d, custla pending %d, stale_rows %d; want 0, 0, 0",
			st["tmp2"].PendingRows, st["custla"].PendingRows, staleRows())
	}
}

// TestAbortedEpochChangesNoView: an epoch let go after it planned a probe of
// tmp2's cooled-down breaker and RefreshView's recompute of the manual custla
// settles neither — the breaker stays open, the force stays armed — and the
// epoch that lands next probes and refreshes both and emits every breaker
// move.
func TestAbortedEpochChangesNoView(t *testing.T) {
	inj := fault.New(1, fault.Plan{
		fault.SiteEngineRefresh:            {ErrProb: 1},
		fault.SiteEngineIncrementalRefresh: {ErrProb: 1},
	})
	o := newEventObserver()
	s, db := policyFixture(t, Config{
		DeltaBatch: 1 << 20,
		Retry:      fastRetry,
		Breaker:    BreakerPolicy{FailureThreshold: 1, Cooldown: time.Nanosecond},
		Injector:   inj,
		Obs:        o,
	}, map[string]RefreshPolicy{"custla": ManualPolicy()}, nil)
	db.SetInjector(inj)

	div, prod := deltaPair(1)
	for table, row := range map[string][]algebra.Value{"Division": div, "Product": prod, "Customer": custDelta(1)} {
		if err := s.Ingest(table, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := s.Staleness()
	if before["tmp2"].Breaker != "open" || before["custla"].Status != "STALE" {
		t.Fatalf("after the first epoch: tmp2 %+v, custla %+v; want tmp2 open, custla STALE", before["tmp2"], before["custla"])
	}

	inj.Disarm()
	inj.SetRule(fault.SiteEngineApplyDeltas, fault.Rule{ErrProb: 1})
	if err := s.RefreshView("custla"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("RefreshView with ApplyDeltas failing returned %v", err)
	}
	if got := s.Staleness(); !reflect.DeepEqual(got, before) {
		t.Errorf("the aborted epoch changed the views:\n got %+v\nwant %+v", got, before)
	}

	inj.Disarm()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, st := range s.Staleness() {
		if st.Status != "VALID" || st.LagRows != 0 || st.Epoch != 2 {
			t.Errorf("%s after the landed epoch: %+v, want VALID, caught up, refreshed at epoch 2", name, st)
		}
	}
	var moves []string
	for _, e := range o.find(obs.EvServeBreaker, "") {
		moves = append(moves, fmt.Sprintf("%s %s>%s", e.attrs["view"], e.attrs["from"], e.attrs["to"]))
	}
	if want := []string{"tmp2 closed>open", "tmp2 open>half-open", "tmp2 half-open>closed"}; !reflect.DeepEqual(moves, want) {
		t.Errorf("breaker events %v, want %v", moves, want)
	}
}
