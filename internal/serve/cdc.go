package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/obs"
)

// ErrBackpressure reports that a streaming ingest call was shed: the bounded
// change-feed buffer stayed full past the block deadline. The batch was NOT
// accepted — nothing was journaled — and the caller should retry later.
// Check with errors.Is.
var ErrBackpressure = errors.New("serve: streaming ingest shed: change-feed buffer full past deadline")

// Streaming-ingest defaults (see IngestConfig).
const (
	DefaultStreamBufferRows = 4096
	DefaultStreamDeadline   = 50 * time.Millisecond
)

// IngestConfig bounds the CDC streaming ingest path (StreamIngest,
// StreamIngestBatch): an ordered change feed whose bounded buffer exerts
// backpressure into callers. Group commit itself has no knob: an admitted
// caller leads a commit at once, and whatever arrives while one commit is
// writing is the next group, so many small ingests share one fsync exactly
// when the journal is the bottleneck.
type IngestConfig struct {
	// BufferRows bounds the accepted-but-uncommitted rows in the feed
	// (default DefaultStreamBufferRows). When a batch would overflow it, the
	// caller blocks until space frees, BlockDeadline elapses
	// (ErrBackpressure), or the server closes.
	BufferRows int
	// BlockDeadline is how long an over-capacity call blocks before it is
	// shed with ErrBackpressure (default DefaultStreamDeadline).
	BlockDeadline time.Duration
}

// feedEntry is one admitted streaming batch waiting in the change feed.
type feedEntry struct {
	// recs is the batch, one record per table in the caller's order; rows
	// is its total row count.
	recs     []engine.DeltaRecord
	rows     int
	seq      uint64
	accepted time.Time
	// ctx is the batch's root span context and entry its /traces entry —
	// both zero when the batch was unsampled. They ride the feed through
	// group commit into the scheduler, so the epoch that lands the batch
	// can adopt (or link) its trace.
	ctx   obs.SpanContext
	entry uint64
	// done receives the entry's group-commit outcome exactly once.
	done chan error
}

// changeFeed is the CDC streaming front-end: a bounded, ordered buffer of
// admitted batches with monotone watermarks (acceptedSeq/committedSeq).
// Group formation is leader/follower: every admitted caller calls flush,
// which serializes on the scheduler's commit-order lock; whoever holds it
// commits everything buffered — its own batch and every batch that arrived
// while the previous leader was writing — as one journal group. A caller
// only returns nil after its group committed, so accepted ⇒ journaled.
type changeFeed struct {
	s        *Server
	capRows  int
	deadline time.Duration

	mu      sync.Mutex
	notFull *sync.Cond
	entries []*feedEntry
	rows    int
	closed  bool
	// acceptedSeq is the last sequence number accepted into the feed;
	// committedSeq the last one group-committed. Both are monotone.
	acceptedSeq  uint64
	committedSeq uint64
}

func newChangeFeed(s *Server, cfg IngestConfig) *changeFeed {
	f := &changeFeed{s: s, capRows: cfg.BufferRows, deadline: cfg.BlockDeadline}
	if f.capRows <= 0 {
		f.capRows = DefaultStreamBufferRows
	}
	if f.deadline <= 0 {
		f.deadline = DefaultStreamDeadline
	}
	f.notFull = sync.NewCond(&f.mu)
	return f
}

// StreamIngest pushes one table's delta rows through the CDC streaming
// path: a one-record StreamIngestBatch.
func (s *Server) StreamIngest(table string, rows ...[]algebra.Value) error {
	return s.StreamIngestBatch([]engine.DeltaRecord{{Table: table, Rows: rows}})
}

// StreamIngestBatch pushes a multi-table delta batch (each record's Table
// and Rows) through the CDC streaming path as one admission: the batch is
// validated, enters the bounded change feed whole (blocking up to the
// configured deadline when its total does not fit, then shedding with
// ErrBackpressure) and the call returns once the group commit containing it
// has journaled and staged every record for the next maintenance epoch. A
// nil return therefore guarantees the whole batch is durable in the journal
// (when one is configured) — accepted ⇒ journaled; any error means none of
// it was journaled or staged.
func (s *Server) StreamIngestBatch(batch []engine.DeltaRecord) error {
	recs, rows, err := s.admit(batch)
	if err != nil || rows == 0 {
		return err
	}
	// Write-path trace sampling: every Nth streaming call (the query
	// sampling stride; every call when only the flight recorder is armed)
	// mints a root span context that rides the feed into the epoch that
	// lands it. Unsampled calls pay one atomic increment.
	start := time.Now()
	var ictx obs.SpanContext
	var itr uint64
	if s.tracingArmed() {
		id := s.nextIngestID.Add(1)
		every := s.traceEvery
		if every == 0 {
			every = 1
		}
		if (id-1)%every == 0 {
			ictx = obs.NewTraceContext()
			itr = s.pipelineTrace("ingest", id, ictx)
		}
	}
	attrs := []obs.Attr{obs.Int("tables", int64(len(recs))), obs.Int("rows", int64(rows))}
	f := s.feed
	f.mu.Lock()
	if rows > f.capRows {
		f.mu.Unlock()
		return fmt.Errorf("serve: batch of %d rows exceeds the %d-row change-feed buffer: %w",
			rows, f.capRows, ErrBackpressure)
	}
	var deadlineAt time.Time
	for f.rows+rows > f.capRows && !f.closed {
		if deadlineAt.IsZero() {
			// First time over capacity: this caller is now blocked by
			// backpressure, counted once per call.
			deadlineAt = time.Now().Add(f.deadline)
			s.stats.streamBlocked.Add(1)
		}
		if !f.waitUntil(deadlineAt) {
			f.mu.Unlock()
			s.stats.streamShed.Add(1)
			obs.Emit(s.obsv, obs.EvServeIngest, append(attrs, obs.String("action", "shed"))...)
			if ictx.Valid() {
				s.traceSpan(itr, ictx, "ingest.stream", start, time.Since(start),
					append(attrs, obs.String("outcome", "shed"))...)
			}
			return ErrBackpressure
		}
	}
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.acceptedSeq++
	e := &feedEntry{
		recs:     recs,
		rows:     rows,
		seq:      f.acceptedSeq,
		accepted: time.Now(),
		ctx:      ictx,
		entry:    itr,
		done:     make(chan error, 1),
	}
	f.entries = append(f.entries, e)
	f.rows += rows
	s.stats.ingestBuffer.Set(float64(f.rows))
	f.mu.Unlock()
	attrs = append(attrs, obs.Int("seq", int64(e.seq)))
	if ictx.Valid() {
		// Admission (including any backpressure wait) is its own span.
		s.traceSpan(itr, ictx.NewChild(), "ingest.accept", start, time.Since(start), attrs...)
	}

	// Lead a commit at once. By the time flush returns, this entry has been
	// committed — by this call or by the leader it waited behind — so the
	// outcome is already in done; an idle feed costs nothing between calls.
	f.flush()
	err = <-e.done
	if ictx.Valid() {
		if err != nil {
			attrs = append(attrs, obs.String("error", err.Error()))
		}
		s.traceSpan(itr, ictx, "ingest.stream", start, time.Since(start), attrs...)
	}
	return err
}

// waitUntil parks the caller on the not-full condition until a wakeup or
// the deadline. Caller holds f.mu; returns false once the deadline passed.
func (f *changeFeed) waitUntil(deadline time.Time) bool {
	remain := time.Until(deadline)
	if remain <= 0 {
		return false
	}
	t := time.AfterFunc(remain, func() {
		// Lock-step with the waiter so the broadcast cannot fire between its
		// predicate check and its park.
		f.mu.Lock()
		//lint:ignore SA2001 the empty critical section orders the broadcast after the waiter parks
		f.mu.Unlock()
		f.notFull.Broadcast()
	})
	f.notFull.Wait()
	t.Stop()
	return time.Now().Before(deadline)
}

// flush leads one group commit. Under the scheduler's commit-order lock —
// which keeps the feed's arrival order all the way into the journal and the
// scheduler buffer — it takes everything buffered, commits it as one group
// (one journal write, one fsync, one staging), and answers every entry with
// the group's outcome: a group succeeds or fails as a whole.
func (f *changeFeed) flush() {
	s := f.s
	s.sched.commitMu.Lock()
	defer s.sched.commitMu.Unlock()
	f.mu.Lock()
	entries := f.entries
	f.entries, f.rows = nil, 0
	f.notFull.Broadcast()
	f.mu.Unlock()
	if len(entries) == 0 {
		return
	}
	s.stats.ingestBuffer.Set(0)
	var recs []engine.DeltaRecord
	var refs []ingestTraceRef
	var rows int64
	for _, e := range entries {
		recs = append(recs, e.recs...)
		rows += int64(e.rows)
		if e.ctx.Valid() {
			// Sampled entries' span contexts ride into the scheduler with
			// the group, so the epoch that lands it can adopt/link them.
			refs = append(refs, ingestTraceRef{ctx: e.ctx, entry: e.entry})
		}
	}
	gstart := time.Now()
	lsn, err := s.commit(recs, 0, refs)
	now := time.Now()
	for _, ref := range refs {
		gctx := ref.ctx.NewChild()
		gattrs := []obs.Attr{
			obs.Int("records", int64(len(recs))),
			obs.Int("rows", rows),
			obs.Int("entries", int64(len(entries))),
		}
		if err != nil {
			gattrs = append(gattrs, obs.String("error", err.Error()))
		}
		s.traceSpan(ref.entry, gctx, "ingest.group_commit", gstart, now.Sub(gstart), gattrs...)
		if lsn > 0 {
			s.traceSpan(ref.entry, gctx.NewChild(), "journal.append", gstart, now.Sub(gstart),
				obs.Int("lsn", int64(lsn)))
		}
	}
	maxSeq := entries[len(entries)-1].seq
	f.mu.Lock()
	f.committedSeq = maxSeq
	f.mu.Unlock()
	if err == nil {
		for _, e := range entries {
			s.stats.streamLag.Record(now.Sub(e.accepted))
		}
		s.stats.streamRows.Add(rows)
		s.stats.streamGroups.Add(1)
		obs.Emit(s.obsv, obs.EvServeIngest,
			obs.String("action", "group_commit"),
			obs.Int("rows", rows),
			obs.Int("entries", int64(len(entries))),
			obs.Int("committed_seq", int64(maxSeq)))
	}
	// Release the callers only after all accounting: a caller's nil return
	// means its batch is journaled and staged.
	for _, e := range entries {
		e.done <- err
	}
}

// shutdown is Close's feed drain: refuse new entries, wake blocked callers
// (they see the closed feed and return ErrClosed), and commit whatever is
// still buffered so every already-admitted entry is journaled and answered.
// Runs before the server's closed channel closes, so the final group commit
// still lands in the scheduler buffer (and the journal replays it next boot).
func (f *changeFeed) shutdown() {
	f.mu.Lock()
	f.closed = true
	f.notFull.Broadcast()
	f.mu.Unlock()
	f.flush()
}

// buffered reports the feed's current row occupancy.
func (f *changeFeed) buffered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rows
}

// IngestWatermarks reports the change feed's monotone watermarks: the last
// sequence accepted into the feed and the last sequence group-committed
// (journaled + staged). accepted-committed entries are in flight.
func (s *Server) IngestWatermarks() (accepted, committed uint64) {
	f := s.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.acceptedSeq, f.committedSeq
}
