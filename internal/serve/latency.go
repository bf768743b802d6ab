package serve

import (
	"sync/atomic"
	"time"

	"github.com/warehousekit/mvpp/internal/obs"
)

// LatencyExemplar links one latency-histogram bucket to a concrete sampled
// query: the most recent sampled observation that fell in the bucket, with
// its causal trace ID. The telemetry plane renders these as OpenMetrics
// exemplars on the bucket lines of mvpp_serve_latency_seconds, so a p99
// spike on a dashboard resolves to a trace retrievable from /traces.
type LatencyExemplar struct {
	// Bucket is the power-of-two bucket index ([2^(i-1), 2^i) nanoseconds);
	// Le is the bucket's upper bound in seconds, matching the rendered
	// histogram's le label.
	Bucket int     `json:"bucket"`
	Le     float64 `json:"le"`
	// Seconds is the observed latency; TraceID/QueryID identify the sampled
	// query that observed it.
	Seconds float64 `json:"seconds"`
	TraceID uint64  `json:"trace_id"`
	QueryID uint64  `json:"query_id"`
}

// exemplarSet keeps one exemplar per latency bucket, overwritten by the
// most recent sampled observation — a single atomic pointer store, paid
// only by sampled queries.
type exemplarSet struct {
	slots [64]atomic.Pointer[LatencyExemplar]
}

// bucketUpperSeconds is bucket i's upper bound in seconds — the value the
// telemetry plane renders as the le label.
func bucketUpperSeconds(i int) float64 {
	return float64(int64(1)<<uint(i)) / float64(time.Second)
}

func (e *exemplarSet) record(d time.Duration, traceID, queryID uint64) {
	if e == nil || traceID == 0 {
		return
	}
	idx := obs.HistBucket(d)
	e.slots[idx].Store(&LatencyExemplar{
		Bucket:  idx,
		Le:      bucketUpperSeconds(idx),
		Seconds: d.Seconds(),
		TraceID: traceID,
		QueryID: queryID,
	})
}

// snapshot returns the populated exemplars in bucket order.
func (e *exemplarSet) snapshot() []LatencyExemplar {
	if e == nil {
		return nil
	}
	var out []LatencyExemplar
	for i := range e.slots {
		if ex := e.slots[i].Load(); ex != nil {
			out = append(out, *ex)
		}
	}
	return out
}
