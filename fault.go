package mvpp

import (
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
	"github.com/warehousekit/mvpp/internal/serve"
)

// The fault-tolerance surface of the serving layer. The implementations
// live in internal/fault (the deterministic injector), internal/serve (the
// retry policy and circuit breaker), and internal/engine (the delta
// journal); these aliases expose them to library users, who configure
// ServeOptions and read back Server.Health.

// FaultInjector injects deterministic, seeded faults — error returns,
// latency spikes, panics — at named sites across the engine and the
// serving layer. Arm one via ServeOptions.Injector (chaos testing) and
// disarm it at runtime with Disarm. A nil injector is inert; production
// builds simply omit it.
type FaultInjector = fault.Injector

// FaultSite names one injection point; see the FaultSite* constants.
type FaultSite = fault.Site

// FaultRule is the fault mix drawn at one site: error, panic, and delay
// probabilities.
type FaultRule = fault.Rule

// FaultPlan maps sites to rules.
type FaultPlan = fault.Plan

// FaultCounts tallies the faults an injector has fired.
type FaultCounts = fault.Counts

// The named injection sites.
const (
	FaultSiteEngineExecute            = fault.SiteEngineExecute
	FaultSiteEngineRefresh            = fault.SiteEngineRefresh
	FaultSiteEngineIncrementalRefresh = fault.SiteEngineIncrementalRefresh
	FaultSiteEngineApplyDeltas        = fault.SiteEngineApplyDeltas
	FaultSiteServeWorker              = fault.SiteServeWorker
	FaultSiteServeEpoch               = fault.SiteServeEpoch
	FaultSiteJournalAppend            = fault.SiteJournalAppend
	FaultSiteJournalTruncate          = fault.SiteJournalTruncate
	FaultSiteSnapshotSegmentWrite     = fault.SiteSnapshotSegmentWrite
	FaultSiteSnapshotManifestWrite    = fault.SiteSnapshotManifestWrite
	FaultSiteSnapshotManifestRename   = fault.SiteSnapshotManifestRename
	FaultSiteSnapshotReplay           = fault.SiteSnapshotReplay
)

// ErrFaultInjected is the sentinel wrapped by every injected error;
// errors.Is(err, ErrFaultInjected) distinguishes chaos from real failures.
var ErrFaultInjected = fault.ErrInjected

// NewFaultInjector builds an injector whose draws are fully determined by
// the seed — the same seed and call sequence produce the same faults.
func NewFaultInjector(seed int64, plan FaultPlan) *FaultInjector {
	return fault.New(seed, plan)
}

// RetryPolicy bounds the serving layer's retry-with-exponential-backoff
// loop around every view-refresh step; see ServeOptions.Retry.
type RetryPolicy = serve.RetryPolicy

// BreakerPolicy configures the per-view circuit breaker; see
// ServeOptions.Breaker.
type BreakerPolicy = serve.BreakerPolicy

// BreakerState is a circuit breaker position (BreakerClosed, BreakerOpen,
// BreakerHalfOpen).
type BreakerState = serve.BreakerState

// Circuit breaker positions.
const (
	BreakerClosed   = serve.BreakerClosed
	BreakerOpen     = serve.BreakerOpen
	BreakerHalfOpen = serve.BreakerHalfOpen
)

// ViewHealth is one maintained view's fault-tolerance status, reported by
// Server.Health.
type ViewHealth = serve.ViewHealth

// ErrServerClosed reports an operation on a closed Server (query, ingest,
// or flush after — or racing with — Close).
var ErrServerClosed = serve.ErrClosed

// ErrQueryRejected reports that admission control turned a query away:
// every execution slot was taken and the caller's context ended while it
// waited for one (or had ended by the time it got one).
var ErrQueryRejected = serve.ErrRejected

// DeltaJournal is the write-ahead log for ingested deltas: batches are
// journaled before buffering, and a server restarted over the same journal
// replays every batch past its boot state's watermark (the snapshot's, or 0
// for freshly generated data) — no accepted delta is lost to a crash. See
// ServeOptions.Journal/JournalPath.
type DeltaJournal = engine.DeltaJournal

// DeltaRecord is one journaled delta batch.
type DeltaRecord = engine.DeltaRecord

// NewMemJournal builds an in-memory DeltaJournal — it survives rebuilding a
// Server over it, not a process exit. Tests and examples use it.
func NewMemJournal() *engine.MemJournal { return engine.NewMemJournal() }

// OpenFileJournal opens (or resumes) the crash-safe file-backed
// DeltaJournal at path: append-only line-JSON, one write and one fsync per
// appended group, tolerant of a torn tail.
func OpenFileJournal(path string) (*engine.FileJournal, error) {
	return engine.OpenFileJournal(path)
}
