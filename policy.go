package mvpp

import (
	"time"

	"github.com/warehousekit/mvpp/internal/serve"
)

// The refresh-policy surface of the serving layer. The implementation lives
// in internal/serve; these aliases expose it to library users, who tag
// views with policies at design time (Design.SetRefreshPolicy) or serve
// time (ServeOptions.Policies) and read statuses back from Staleness.

// RefreshPolicy is one view's refresh discipline: when the maintenance
// scheduler is allowed to fold landed deltas into the stored view. The
// zero value means "use the configured default" (on-commit unless
// ServeOptions.DefaultPolicy says otherwise).
type RefreshPolicy = serve.RefreshPolicy

// FreshnessSLO bounds how stale a view may get before its queries degrade
// to base relations and the violation is reported; the zero value means no
// SLO.
type FreshnessSLO = serve.FreshnessSLO

// IngestConfig bounds the CDC streaming-ingest path (change-feed buffer,
// block deadline).
type IngestConfig = serve.IngestConfig

// ViewStatus is one view's lifecycle position: ViewValid, ViewStale,
// ViewBuilding, or ViewError.
type ViewStatus = serve.ViewStatus

// View lifecycle positions reported by Staleness (as strings) and the
// /views telemetry endpoint.
const (
	ViewValid    = serve.StatusValid
	ViewStale    = serve.StatusStale
	ViewBuilding = serve.StatusBuilding
	ViewError    = serve.StatusError
)

// ErrBackpressure reports a shed StreamDeltas call: the change-feed buffer
// stayed full past the block deadline and nothing was accepted. Check with
// errors.Is.
var ErrBackpressure = serve.ErrBackpressure

// ManualPolicy defers all maintenance until RefreshView/RefreshAllViews.
func ManualPolicy() RefreshPolicy { return serve.ManualPolicy() }

// OnCommitPolicy refreshes on every maintenance epoch (the legacy
// behavior, and the default).
func OnCommitPolicy() RefreshPolicy { return serve.OnCommitPolicy() }

// ScheduledPolicy refreshes at most once per interval; between refreshes
// landed deltas accrue as lag.
func ScheduledPolicy(every time.Duration) RefreshPolicy { return serve.ScheduledPolicy(every) }

// StreamingPolicy refreshes on every epoch and marks the view as fed by
// the CDC streaming path.
func StreamingPolicy() RefreshPolicy { return serve.StreamingPolicy() }

// ParseRefreshPolicy parses a policy spec: "manual", "on-commit",
// "scheduled:<duration>" (e.g. "scheduled:30s"), or "streaming". The empty
// string parses as on-commit.
func ParseRefreshPolicy(s string) (RefreshPolicy, error) { return serve.ParsePolicy(s) }
