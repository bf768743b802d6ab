package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/obs"
)

// Defaults for the zero values of RetryPolicy and BreakerPolicy.
const (
	DefaultRetryAttempts    = 3
	DefaultRetryBase        = 2 * time.Millisecond
	DefaultRetryMax         = 100 * time.Millisecond
	DefaultRetryMultiplier  = 2.0
	DefaultRetryJitter      = 0.2
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 250 * time.Millisecond
)

// RetryPolicy bounds the retry-with-exponential-backoff loop the scheduler
// wraps around every refresh step of a maintenance epoch (incremental
// refresh, full recompute, delta application). Zero values take the
// defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, the first call included.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// multiplies the delay by Multiplier, capped at MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter randomizes each delay by ±Jitter (0.2 = ±20%) so retries from
	// repeated epochs do not align; negative disables jitter entirely.
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryBase
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryMax
	}
	if p.Multiplier <= 1 {
		p.Multiplier = DefaultRetryMultiplier
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	} else if p.Jitter == 0 {
		p.Jitter = DefaultRetryJitter
	}
	return p
}

// BreakerPolicy configures the per-view circuit breaker. Zero values take
// the defaults (except StalenessBound, where 0 disables the bound).
type BreakerPolicy struct {
	// FailureThreshold is how many consecutive persistent refresh failures
	// (each already retried per RetryPolicy) trip the breaker open.
	FailureThreshold int
	// Cooldown is how long an open breaker waits before the next epoch
	// probes the view half-open (one full recompute attempt).
	Cooldown time.Duration
	// StalenessBound, when positive, degrades queries away from a view
	// whose lag — base-table rows applied that the view does not reflect —
	// exceeds the bound, even while its breaker is still closed. 0 disables
	// the bound.
	StalenessBound int
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = DefaultBreakerThreshold
	}
	if p.Cooldown <= 0 {
		p.Cooldown = DefaultBreakerCooldown
	}
	return p
}

// BreakerState is a circuit breaker position.
type BreakerState int32

// Circuit breaker positions: a closed breaker serves the view normally; an
// open breaker degrades its queries to base relations and pauses refresh
// attempts until Cooldown elapses; half-open is the probe — one recompute
// attempt that either closes the breaker or re-opens it.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (b BreakerState) String() string {
	switch b {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(b))
	}
}

// ViewHealth is one maintained view's fault-tolerance status.
type ViewHealth struct {
	// State is the circuit breaker position.
	State BreakerState
	// ConsecutiveFailures counts persistent refresh failures since the last
	// successful refresh.
	ConsecutiveFailures int
	// LagRows counts rows applied to the view's base relations that the
	// stored view does not reflect — its true staleness. Buffered deltas
	// are invisible to every plan and do not count.
	LagRows int
	// Degrading reports whether queries over this view are currently being
	// answered from base relations instead.
	Degrading bool
	// LastError is the most recent refresh failure ("" when healthy).
	LastError string
}

// Health reports the fault-tolerance status of every maintained view.
func (s *Server) Health() map[string]ViewHealth {
	sc := s.sched
	now := time.Now()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[string]ViewHealth, len(sc.views))
	for name, vs := range sc.views {
		out[name] = ViewHealth{
			State:               vs.state,
			ConsecutiveFailures: vs.failures,
			LagRows:             vs.lag,
			Degrading:           vs.reading(sc.breaker, now).degrading,
			LastError:           vs.lastErr,
		}
	}
	return out
}

// retryRefresh runs one refresh step under the retry policy: panics become
// errors (and count as recovered), transient failures back off
// exponentially with jitter, and engine.ErrNotIncremental returns
// immediately — it is a design-time fallback signal, not a fault. The
// server's base context aborts backoff sleeps when the server closes.
// sctx is the step's span context (zero when the epoch is untraced); every
// retry is stamped onto the flight recorder under it, so a dump shows which
// attempts a struggling view burned. Returns how many attempts ran.
func (s *Server) retryRefresh(ctx context.Context, sctx obs.SpanContext, label string, f func() (*engine.Result, error)) (*engine.Result, int, error) {
	p := s.retry
	guarded := func() (res *engine.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				s.stats.panics.Add(1)
				err = fmt.Errorf("serve: %s recovered from panic: %v", label, r)
			}
		}()
		return f()
	}
	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		res, err := guarded()
		if err == nil || errors.Is(err, engine.ErrNotIncremental) {
			return res, attempt, err
		}
		if attempt >= p.MaxAttempts {
			return nil, attempt, err
		}
		s.stats.retries.Add(1)
		obs.Emit(s.obsv, obs.EvServeRetry,
			obs.String("target", label),
			obs.Int("attempt", int64(attempt)),
			obs.String("error", err.Error()))
		if sctx.Valid() {
			s.writeRing.Add(&obs.Record{Kind: obs.KindEvent, Name: string(obs.EvServeRetry),
				Ctx: sctx, Start: time.Now().UnixNano(), Attrs: []obs.Attr{
					obs.String("target", label),
					obs.Int("attempt", int64(attempt)),
					obs.String("error", err.Error()),
				}})
		}
		select {
		case <-time.After(s.jittered(delay)):
		case <-ctx.Done():
			return nil, attempt, fmt.Errorf("serve: retry of %s aborted: %w (last error: %v)", label, ctx.Err(), err)
		}
		delay = time.Duration(float64(delay) * p.Multiplier)
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}

// jittered spreads a backoff delay by ±Jitter using the server's seeded
// jitter source (deterministic across runs, like the fault injector).
// Maintainer only: every retried step is a step of an epoch.
func (s *Server) jittered(d time.Duration) time.Duration {
	if s.retry.Jitter <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 + s.retry.Jitter*(2*s.jrng.Float64()-1)))
}
