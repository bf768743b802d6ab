// Package fault is a deterministic, seeded fault injector for the serving
// stack. It mirrors the nil-off hook discipline of internal/obs: components
// hold a *Injector that is nil when chaos is off, every injection site is a
// single nil-guarded call (Hit), and a nil injector costs one predictable
// branch.
//
// An Injector is armed with a Plan: a map from named Sites (fixed points in
// internal/engine and internal/serve) to Rules giving independent
// probabilities for three fault classes — injected errors, injected panics,
// and latency spikes. Draws come from one seeded math/rand source, so a
// single-goroutine call sequence is fully reproducible; under concurrency
// the per-call outcomes still follow the seeded stream, only their
// interleaving varies.
//
// The injector exists to *drive* fault tolerance, not to model it: tests
// and the chaos example arm rules with probability 1 to force a failure
// deterministically, then Disarm to watch the serving layer recover.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/warehousekit/mvpp/internal/obs"
)

// Site names one injection point. The constants below are every site the
// engine and serving layer expose; Hit on an unknown site is a no-op.
type Site string

// The injection sites.
const (
	// SiteEngineExecute fires on every DB.Execute — the query read path
	// (latency spikes here model slow scans; errors model failed reads).
	SiteEngineExecute Site = "engine.execute"
	// SiteEngineRefresh fires on an epoch's Refresh — full view recomputation.
	SiteEngineRefresh Site = "engine.refresh"
	// SiteEngineIncrementalRefresh fires on an epoch's IncrementalRefresh
	// after the incrementability gate — delta application to a view.
	SiteEngineIncrementalRefresh Site = "engine.incremental_refresh"
	// SiteEngineApplyDeltas fires on an epoch's ApplyDeltas — folding pending
	// deltas into the base tables.
	SiteEngineApplyDeltas Site = "engine.apply_deltas"
	// SiteServeWorker fires on the serving router just before it executes an
	// admitted cache miss, on the caller's goroutine while the miss holds its
	// execution slot (panics here exercise the router's recovery: the caller
	// gets an error and the slot is freed).
	SiteServeWorker Site = "serve.worker"
	// SiteServeEpoch fires at the top of a maintenance epoch.
	SiteServeEpoch Site = "serve.epoch"
	// SiteJournalAppend fires in FileJournal.AppendGroup before the group's
	// write — an injected error refuses the group whole: the file and the
	// LSN sequence are untouched, and the serving layer stages nothing.
	SiteJournalAppend Site = "journal.append"
	// SiteJournalTruncate fires inside FileJournal.Truncate after the
	// compacted replacement file is written but before it is renamed over
	// the live journal — an injected error simulates a crash mid-compaction
	// (the original journal survives intact, a torn .compact file is left
	// behind).
	SiteJournalTruncate Site = "journal.truncate"
	// SiteSnapshotSegmentWrite fires once per columnar segment a snapshot
	// checkpoint writes — an injected error leaves a genuinely torn segment
	// file on disk (a half-written payload), simulating a crash mid-write.
	SiteSnapshotSegmentWrite Site = "snapshot.segment_write"
	// SiteSnapshotManifestWrite fires after a checkpoint's manifest is
	// staged to its temporary file but before the atomic rename — an
	// injected error simulates a crash just before the commit point (the
	// new generation stays invisible to recovery).
	SiteSnapshotManifestWrite Site = "snapshot.manifest_write"
	// SiteSnapshotManifestRename fires immediately after the manifest
	// rename — an injected error simulates a crash just after the commit
	// point, before the journal is compacted or old generations aged out.
	SiteSnapshotManifestRename Site = "snapshot.manifest_rename"
	// SiteSnapshotReplay fires once per segment decoded during snapshot
	// recovery — an injected error is treated like a corrupt segment and
	// exercises the per-view fallback to recomputation.
	SiteSnapshotReplay Site = "snapshot.replay"
)

// ErrInjected is the error every injected failure wraps; callers
// distinguish chaos from organic failures with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Rule gives one site's independent fault probabilities, each in [0,1].
// The zero Rule injects nothing.
type Rule struct {
	// ErrProb is the probability Hit returns an injected error.
	ErrProb float64
	// PanicProb is the probability Hit panics (with a value wrapping the
	// site name), exercising the caller's recovery path.
	PanicProb float64
	// SlowProb is the probability Hit sleeps for Delay before returning —
	// a latency spike.
	SlowProb float64
	// Delay is the latency-spike duration (only meaningful with SlowProb).
	Delay time.Duration
}

// Plan maps sites to their rules. Sites absent from the plan never inject.
type Plan map[Site]Rule

// Counts tallies what one site (or the whole injector) has injected.
type Counts struct {
	Errors int64
	Panics int64
	Delays int64
}

// Injector evaluates rules at named sites. All methods are safe for
// concurrent use, and every method is a no-op on a nil receiver, so
// components hold an unconditional *Injector field.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	plan   Plan
	counts map[Site]*Counts

	obsv obs.Observer
	ctr  *obs.Counter
}

// New builds an injector over a seeded random stream. The plan is copied.
func New(seed int64, plan Plan) *Injector {
	in := &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		plan:   make(Plan, len(plan)),
		counts: make(map[Site]*Counts),
	}
	for site, rule := range plan {
		in.plan[site] = rule
	}
	return in
}

// SetObserver wires injection events (obs.EvFault) and the
// obs.CtrFaultsInjected counter into an observer; nil disables again.
func (in *Injector) SetObserver(o obs.Observer) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.obsv = o
	in.ctr = obs.CounterOf(o, obs.CtrFaultsInjected)
}

// SetRule replaces one site's rule (a zero Rule turns the site off).
func (in *Injector) SetRule(site Site, r Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plan[site] = r
}

// Disarm clears every rule: the injector stays wired but injects nothing,
// letting a chaos run switch to a recovery phase without rewiring hooks.
func (in *Injector) Disarm() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plan = make(Plan)
}

// SiteCounts returns what has been injected at one site.
func (in *Injector) SiteCounts(site Site) Counts {
	if in == nil {
		return Counts{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if c := in.counts[site]; c != nil {
		return *c
	}
	return Counts{}
}

// Total sums the injected counts over all sites.
func (in *Injector) Total() Counts {
	if in == nil {
		return Counts{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var t Counts
	for _, c := range in.counts {
		t.Errors += c.Errors
		t.Panics += c.Panics
		t.Delays += c.Delays
	}
	return t
}

// Hit evaluates the site's rule: it may sleep (latency spike), then panic,
// then return an injected error — or, on a nil injector, unknown site, or
// losing draws, do nothing and return nil. The mutex is released before
// sleeping or panicking, so a spike never blocks other sites.
func (in *Injector) Hit(site Site) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	rule, ok := in.plan[site]
	if !ok || (rule.ErrProb <= 0 && rule.PanicProb <= 0 && rule.SlowProb <= 0) {
		in.mu.Unlock()
		return nil
	}
	// Draw all three decisions in a fixed order so a given seed yields a
	// reproducible outcome stream.
	slow := rule.SlowProb > 0 && in.rng.Float64() < rule.SlowProb
	pan := rule.PanicProb > 0 && in.rng.Float64() < rule.PanicProb
	errd := rule.ErrProb > 0 && in.rng.Float64() < rule.ErrProb
	c := in.counts[site]
	if c == nil {
		c = &Counts{}
		in.counts[site] = c
	}
	if slow {
		c.Delays++
	}
	if pan {
		c.Panics++
	}
	if errd && !pan {
		c.Errors++
	}
	obsv, ctr := in.obsv, in.ctr
	in.mu.Unlock()

	if slow {
		ctr.Inc()
		obs.Emit(obsv, obs.EvFault, obs.String("site", string(site)), obs.String("kind", "delay"))
		time.Sleep(rule.Delay)
	}
	if pan {
		ctr.Inc()
		obs.Emit(obsv, obs.EvFault, obs.String("site", string(site)), obs.String("kind", "panic"))
		panic(fmt.Sprintf("fault: injected panic at %s", site))
	}
	if errd {
		ctr.Inc()
		obs.Emit(obsv, obs.EvFault, obs.String("site", string(site)), obs.String("kind", "error"))
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
	return nil
}
