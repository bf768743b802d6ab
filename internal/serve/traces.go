package serve

import (
	"slices"
	"time"

	"github.com/warehousekit/mvpp/internal/obs"
)

// Trace correlation: when Config.TraceSampleEvery is set, the router mints
// a query ID for every submission and samples every Nth query. A sampled
// query records each lifecycle stage — admission, cache hit/miss, engine
// execution, degradation, reply — into the sampled-query ring, and mirrors
// every stage to the observer as an EvServeQuery event tagged with the same
// query_id, so one query's full path greps out of a JSON trace by ID.
// Unsampled queries pay one atomic increment; with sampling off the hot
// path pays nothing at all.
//
// The write path records into its own ring, the flight recorder's. Sampled
// StreamIngest batches mint an obs.SpanContext that rides the change feed
// through group commit and journal append; the maintenance epoch that lands
// the batch inherits the first contributor's trace ID (and links the rest),
// and hangs its per-view refresh spans under the epoch span. Checkpoints
// get their own entries. Each span is recorded once, as an obs.Record in
// that ring: flight dumps read its spans and events, and /traces groups
// both rings' records by entry number into full causal span trees —
// ingest → group commit → journal LSN → epoch → refresh — so one trace ID
// follows a delta from StreamIngest to the query that read it. Two rings,
// not one, so that a flood of sampled queries never pushes out the refresh
// decisions a breach dump exists to show.

// TraceStage is one recorded step of a sampled query's lifecycle.
type TraceStage struct {
	// Stage is the lifecycle step: "admit", "cache_hit", "cache_miss",
	// "execute", "degraded", "reply".
	Stage string `json:"stage"`
	// AtUS is microseconds since the query was admitted.
	AtUS int64 `json:"at_us"`
	// Detail carries stage-specific attributes (reads, epoch, outcome...).
	Detail map[string]any `json:"detail,omitempty"`
}

// PipelineSpan is one completed span of a pipeline trace: a timed region
// of the write path (ingest accept, group commit, journal append, epoch,
// per-view refresh, checkpoint phase) with its causal identity. Parent
// points at another span of the same trace (0 for roots), so a trace's
// spans reassemble into a tree.
type PipelineSpan struct {
	SpanID     uint64         `json:"span_id"`
	Parent     uint64         `json:"parent_span_id,omitempty"`
	Name       string         `json:"name"`
	AtUS       int64          `json:"at_us"`
	DurationUS int64          `json:"duration_us"`
	Detail     map[string]any `json:"detail,omitempty"`
}

// QueryTrace is the exported form of one sampled trace-ring entry. The
// original query-only fields keep their exact meaning; write-path entries
// (kind "ingest", "epoch", "checkpoint") additionally carry the causal
// trace ID, their span tree, and links to contributing trace IDs.
type QueryTrace struct {
	// ID is the query ID minted at router admission; every stage of this
	// query — and every EvServeQuery observer event it emitted — carries it.
	// Write-path entries reuse the field: an ingest's sequence number, an
	// epoch's number, the served epoch a checkpoint persists.
	ID uint64 `json:"query_id"`
	// Kind distinguishes ring entries: "" or "query" for sampled queries,
	// "ingest" for StreamIngest batches, "epoch" for maintenance epochs,
	// "checkpoint" for snapshot checkpoints.
	Kind string `json:"kind,omitempty"`
	// TraceID is the causal trace this entry belongs to (0 when the entry
	// predates span propagation — plain sampled queries not joined to a
	// pipeline trace).
	TraceID uint64 `json:"trace_id,omitempty"`
	// Query is the workload query name ("" for ad-hoc Submit calls).
	Query string `json:"query,omitempty"`
	// StartedAt is the wall-clock admission time.
	StartedAt time.Time `json:"started_at"`
	// Done reports whether the reply stage has been recorded.
	Done bool `json:"done"`
	// Stages is the lifecycle in recording order.
	Stages []TraceStage `json:"stages,omitempty"`
	// Spans is the entry's span tree (write-path entries), parent-linked
	// via PipelineSpan.Parent.
	Spans []PipelineSpan `json:"spans,omitempty"`
	// Links names other trace IDs that causally contributed to this entry
	// (e.g. the sampled ingest batches an epoch landed beyond the first,
	// whose trace ID the epoch adopts).
	Links []uint64 `json:"links,omitempty"`
}

// sampledQuery names a sampled query's /traces entry. The zero value is an
// unsampled query, on which every recording site no-ops.
type sampledQuery struct {
	entry   uint64 // the /traces entry; 0 when unsampled
	id      uint64 // the query ID minted at admission
	traceID uint64
}

// openEntry records the header of a new /traces entry into ring and returns
// the entry's number. id is the entry's ID (query ID, epoch number, the
// served epoch a checkpoint persists, ingest sequence); ctx its root context.
func (s *Server) openEntry(ring *obs.Ring, kind string, id uint64, ctx obs.SpanContext, query string) uint64 {
	entry := s.nextEntry.Add(1)
	attrs := []obs.Attr{obs.Int("id", int64(id))}
	if query != "" {
		attrs = append(attrs, obs.String("query", query))
	}
	ring.Add(&obs.Record{Kind: obs.KindEntry, Name: kind, Entry: entry, Ctx: ctx, Start: time.Now().UnixNano(), Attrs: attrs})
	return entry
}

// pipelineTrace opens a write-path /traces entry. Returns 0 when trace
// sampling is off: /traces is not served, so the write ring then holds
// spans and events only and every entry-level recording site no-ops.
func (s *Server) pipelineTrace(kind string, id uint64, ctx obs.SpanContext) uint64 {
	if s.queryRing == nil {
		return 0
	}
	return s.openEntry(s.writeRing, kind, id, ctx, "")
}

// traceSpan records one completed write-path span, once, into the write
// ring under /traces entry `entry` (0 for none); flight dumps and /traces
// both read it there. No-op when the write ring is off.
func (s *Server) traceSpan(entry uint64, ctx obs.SpanContext, name string, started time.Time, dur time.Duration, attrs ...obs.Attr) {
	s.writeRing.Add(&obs.Record{Kind: obs.KindSpan, Name: name, Entry: entry, Ctx: ctx,
		Start: started.UnixNano(), Dur: int64(dur), Attrs: attrs})
}

// traceLink records that trace traceID contributed to entry.
func traceLink(ring *obs.Ring, entry, traceID uint64) {
	if entry == 0 {
		return
	}
	ring.Add(&obs.Record{Kind: obs.KindLink, Entry: entry, Ctx: obs.SpanContext{TraceID: traceID}})
}

// traceStage records one lifecycle stage of a sampled query and mirrors it
// to the observer as an EvServeQuery event carrying the same query_id.
// No-op for an unsampled query — but its attributes escape to the heap all
// the same, so a caller on the query path that passes any checks
// q.entry != 0 first (TestHitAllocBudget).
func (s *Server) traceStage(q sampledQuery, stage string, attrs ...obs.Attr) {
	if q.entry == 0 {
		return
	}
	s.queryRing.Add(&obs.Record{Kind: obs.KindStage, Name: stage, Entry: q.entry, Start: time.Now().UnixNano(), Attrs: attrs})
	if s.obsv == nil {
		return
	}
	tagged := make([]obs.Attr, 0, len(attrs)+2)
	tagged = append(tagged, obs.Int("query_id", int64(q.id)), obs.String("stage", stage))
	tagged = append(tagged, attrs...)
	obs.Emit(s.obsv, obs.EvServeQuery, tagged...)
}

// RecentTraces returns the /traces entries whose header is still in a
// ring, oldest first and at most DefaultTraceRing of them: the records of
// both rings grouped by entry number. A query is done once its reply stage
// is recorded, a write-path entry once its root span is. Nil when trace
// sampling is off.
func (s *Server) RecentTraces() []QueryTrace {
	if s.queryRing == nil {
		return nil
	}
	type open struct {
		tr    QueryTrace
		start int64
		root  uint64 // the root span's ID; 0 for queries
	}
	recs := append(s.writeRing.Records(), s.queryRing.Records()...)
	entries := make(map[uint64]*open)
	for _, r := range recs {
		if r.Kind != obs.KindEntry {
			continue
		}
		e := &open{start: r.Start, root: r.Ctx.SpanID,
			tr: QueryTrace{Kind: r.Name, TraceID: r.Ctx.TraceID, StartedAt: time.Unix(0, r.Start)}}
		for _, a := range r.Attrs {
			switch a.Key {
			case "id":
				e.tr.ID = uint64(a.Value.(int64))
			case "query":
				e.tr.Query = a.Value.(string)
			}
		}
		entries[r.Entry] = e
	}
	// Each ring is in recording order, and an entry's records all live in
	// the ring its header does.
	for _, r := range recs {
		e := entries[r.Entry]
		if e == nil {
			continue
		}
		at := (r.Start - e.start) / 1000
		switch r.Kind {
		case obs.KindStage:
			e.tr.Stages = append(e.tr.Stages, TraceStage{Stage: r.Name, AtUS: at, Detail: obs.AttrMap(r.Attrs)})
			e.tr.Done = e.tr.Done || r.Name == "reply"
		case obs.KindSpan:
			e.tr.Spans = append(e.tr.Spans, PipelineSpan{
				SpanID:     r.Ctx.SpanID,
				Parent:     r.Ctx.Parent,
				Name:       r.Name,
				AtUS:       at,
				DurationUS: r.Dur / 1000,
				Detail:     obs.AttrMap(r.Attrs),
			})
			e.tr.Done = e.tr.Done || r.Ctx.SpanID == e.root
		case obs.KindLink:
			if id := r.Ctx.TraceID; id != e.tr.TraceID && !slices.Contains(e.tr.Links, id) {
				e.tr.Links = append(e.tr.Links, id)
			}
		}
	}
	nums := make([]uint64, 0, len(entries))
	for n := range entries {
		nums = append(nums, n)
	}
	slices.Sort(nums)
	if len(nums) > DefaultTraceRing {
		nums = nums[len(nums)-DefaultTraceRing:]
	}
	out := make([]QueryTrace, len(nums))
	for i, n := range nums {
		out[i] = entries[n].tr
	}
	return out
}
