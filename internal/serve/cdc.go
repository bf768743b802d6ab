package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/obs"
)

// ErrBackpressure reports that a StreamIngest call was shed: the bounded
// change-feed buffer stayed full past the block deadline. The rows were NOT
// accepted — nothing was journaled — and the caller should retry later.
// Check with errors.Is.
var ErrBackpressure = errors.New("serve: streaming ingest shed: change-feed buffer full past deadline")

// Streaming-ingest defaults (see IngestConfig).
const (
	DefaultStreamBufferRows  = 4096
	DefaultStreamDeadline    = 50 * time.Millisecond
	DefaultStreamGroupLinger = 2 * time.Millisecond
)

// IngestConfig tunes the CDC streaming ingest path (StreamIngest): an
// ordered change feed whose bounded buffer exerts backpressure into callers
// and whose entries are group-committed — journaled and staged as one delta
// batch — so many small ingests share one fsync.
type IngestConfig struct {
	// BufferRows bounds the accepted-but-uncommitted rows in the feed
	// (default DefaultStreamBufferRows). When a StreamIngest would overflow
	// it, the caller blocks until space frees, BlockDeadline elapses
	// (ErrBackpressure), or the server closes.
	BufferRows int
	// BlockDeadline is how long an over-capacity StreamIngest blocks before
	// it is shed with ErrBackpressure (default DefaultStreamDeadline).
	BlockDeadline time.Duration
	// GroupRows is the group-commit threshold: once the feed holds that many
	// rows, the group flushes immediately (default: the scheduler's delta
	// batch size).
	GroupRows int
	// GroupLinger is the longest a partial group waits for company before a
	// parked caller flushes it (default DefaultStreamGroupLinger).
	GroupLinger time.Duration
}

// feedEntry is one accepted StreamIngest call parked in the change feed.
type feedEntry struct {
	table    string
	rows     [][]algebra.Value
	seq      uint64
	accepted time.Time
	// ctx is the batch's root span context and trace its ring entry — both
	// zero/nil when the batch was unsampled. They ride the feed through
	// group commit into the scheduler, so the epoch that lands the batch
	// can adopt (or link) its trace.
	ctx   obs.SpanContext
	trace *queryTrace
	// done receives the entry's group-commit outcome exactly once.
	done chan error
}

// changeFeed is the CDC streaming front-end: a bounded, ordered buffer of
// accepted changes with monotone watermarks (acceptedSeq/committedSeq).
// Entries are group-committed into the scheduler — journaled write-ahead
// and staged for the next maintenance epoch — by whichever caller fills
// the group, lingers past GroupLinger, or by Close's final drain. A caller
// only returns nil after its group committed, so accepted ⇒ journaled.
type changeFeed struct {
	s         *Server
	capRows   int
	deadline  time.Duration
	groupRows int
	linger    time.Duration

	// flushMu serializes group commits, preserving the feed's arrival order
	// all the way into the journal and the scheduler buffer.
	flushMu sync.Mutex

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

func newChangeFeed(s *Server, cfg IngestConfig, batch int) *changeFeed {
	f := &changeFeed{
		s:         s,
		capRows:   cfg.BufferRows,
		deadline:  cfg.BlockDeadline,
		groupRows: cfg.GroupRows,
		linger:    cfg.GroupLinger,
	}
	if f.capRows <= 0 {
		f.capRows = DefaultStreamBufferRows
	}
	if f.deadline <= 0 {
		f.deadline = DefaultStreamDeadline
	}
	if f.groupRows <= 0 {
		f.groupRows = batch
	}
	if f.linger <= 0 {
		f.linger = DefaultStreamGroupLinger
	}
	f.notFull = sync.NewCond(&f.mu)
	return f
}

// StreamIngest pushes delta rows through the CDC streaming path: the rows
// enter the bounded change feed (blocking up to the configured deadline
// when it is full, then shedding with ErrBackpressure) and the call returns
// once the group commit containing them has journaled and staged the rows
// for the next maintenance epoch. A nil return therefore guarantees the
// rows are durable in the journal (when one is configured) — accepted ⇒
// journaled — and will land with the next epoch.
func (s *Server) StreamIngest(table string, rows ...[]algebra.Value) error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	t, err := s.db.Table(table)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if len(r) != t.Schema.Len() {
			return fmt.Errorf("serve: row width %d does not match schema width %d of %s",
				len(r), t.Schema.Len(), table)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	// Write-path trace sampling: every Nth StreamIngest call (the query
	// sampling stride; every call when only the flight recorder is armed)
	// mints a root span context that rides the feed into the epoch that
	// lands it. Unsampled calls pay one atomic increment.
	start := time.Now()
	var ictx obs.SpanContext
	var itr *queryTrace
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
	f := s.feed
	f.mu.Lock()
	if len(rows) > f.capRows {
		f.mu.Unlock()
		return fmt.Errorf("serve: batch of %d rows exceeds the %d-row change-feed buffer: %w",
			len(rows), f.capRows, ErrBackpressure)
	}
	var deadlineAt time.Time
	for f.rows+len(rows) > f.capRows && !f.closed {
		if deadlineAt.IsZero() {
			// First time over capacity: this caller is now blocked by
			// backpressure, counted once per call.
			deadlineAt = time.Now().Add(f.deadline)
			s.stats.streamBlocked.Add(1)
			s.ctrStreamBlocked.Inc()
		}
		if !f.waitUntil(deadlineAt) {
			f.mu.Unlock()
			s.stats.streamShed.Add(1)
			s.ctrStreamShed.Inc()
			obs.Emit(s.obsv, obs.EvServeIngest,
				obs.String("action", "shed"),
				obs.String("table", table),
				obs.Int("rows", int64(len(rows))))
			if ictx.Valid() {
				s.traceSpan(itr, ictx, "ingest.stream", start, time.Since(start),
					obs.String("table", table), obs.Int("rows", int64(len(rows))),
					obs.String("outcome", "shed"))
				itr.finish()
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
		table:    table,
		rows:     rows,
		seq:      f.acceptedSeq,
		accepted: time.Now(),
		ctx:      ictx,
		trace:    itr,
		done:     make(chan error, 1),
	}
	f.entries = append(f.entries, e)
	f.rows += len(rows)
	full := f.rows >= f.groupRows
	s.gIngestBuffer.Set(float64(f.rows))
	f.mu.Unlock()
	if ictx.Valid() {
		// Admission (including any backpressure wait) is its own span.
		s.traceSpan(itr, ictx.NewChild(), "ingest.accept", start, time.Since(start),
			obs.String("table", table), obs.Int("rows", int64(len(rows))),
			obs.Int("seq", int64(e.seq)))
	}

	if full {
		// This caller filled the group: it leads the commit inline.
		f.flush()
	}
	// Park until the group containing this entry commits; after the linger
	// the caller flushes the partial group itself, so no background ticker
	// is needed and an idle feed costs nothing.
	timer := time.NewTimer(f.linger)
	select {
	case err = <-e.done:
		timer.Stop()
	case <-timer.C:
		f.flush()
		err = <-e.done
	}
	if ictx.Valid() {
		attrs := []obs.Attr{
			obs.String("table", table), obs.Int("rows", int64(len(rows))),
			obs.Int("seq", int64(e.seq)),
		}
		if err != nil {
			attrs = append(attrs, obs.String("error", err.Error()))
		}
		s.traceSpan(itr, ictx, "ingest.stream", start, time.Since(start), attrs...)
		itr.finish()
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

// flush group-commits everything currently buffered: one journal append and
// one scheduler staging per table, in feed arrival order, then releases
// every parked caller with its outcome.
func (f *changeFeed) flush() {
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	f.mu.Lock()
	entries := f.entries
	if len(entries) == 0 {
		f.mu.Unlock()
		return
	}
	f.entries = nil
	f.rows = 0
	f.s.gIngestBuffer.Set(0)
	f.notFull.Broadcast()
	f.mu.Unlock()
	f.deliver(entries)
}

// deliver journals and stages one stolen group, then answers its entries.
// Caller holds flushMu (ordering) but not f.mu (the buffer is already free).
func (f *changeFeed) deliver(entries []*feedEntry) {
	s := f.s
	var order []string
	byTable := make(map[string][][]algebra.Value)
	for _, e := range entries {
		if _, seen := byTable[e.table]; !seen {
			order = append(order, e.table)
		}
		byTable[e.table] = append(byTable[e.table], e.rows...)
	}
	errs := make(map[string]error, len(order))
	for _, table := range order {
		// Sampled entries' span contexts ride into the scheduler with the
		// batch, so the epoch that lands it can adopt/link their traces.
		var refs []ingestTraceRef
		for _, e := range entries {
			if e.table == table && e.ctx.Valid() {
				refs = append(refs, ingestTraceRef{ctx: e.ctx, trace: e.trace})
			}
		}
		gstart := time.Now()
		lsn, err := s.ingest(table, byTable[table], true, "stream", refs...)
		errs[table] = err
		gdur := time.Since(gstart)
		for _, ref := range refs {
			gctx := ref.ctx.NewChild()
			gattrs := []obs.Attr{
				obs.String("table", table),
				obs.Int("rows", int64(len(byTable[table]))),
				obs.Int("entries", int64(len(entries))),
			}
			if err != nil {
				gattrs = append(gattrs, obs.String("error", err.Error()))
			}
			s.traceSpan(ref.trace, gctx, "ingest.group_commit", gstart, gdur, gattrs...)
			if lsn > 0 {
				s.traceSpan(ref.trace, gctx.NewChild(), "journal.append", gstart, gdur,
					obs.Int("lsn", int64(lsn)))
			}
		}
	}

	now := time.Now()
	var rows int64
	for _, e := range entries {
		if errs[e.table] == nil {
			rows += int64(len(e.rows))
			s.stats.streamLag.Record(now.Sub(e.accepted))
		}
	}
	maxSeq := entries[len(entries)-1].seq
	f.mu.Lock()
	if maxSeq > f.committedSeq {
		f.committedSeq = maxSeq
	}
	f.mu.Unlock()
	if rows > 0 {
		s.stats.streamRows.Add(rows)
		s.stats.streamGroups.Add(1)
		s.ctrStreamRows.Add(rows)
		s.ctrStreamGroups.Inc()
		obs.Emit(s.obsv, obs.EvServeIngest,
			obs.String("action", "group_commit"),
			obs.Int("rows", rows),
			obs.Int("entries", int64(len(entries))),
			obs.Int("committed_seq", int64(maxSeq)))
	}
	// Release the parked callers only after all accounting: a caller's nil
	// return means its rows are journaled and staged.
	for _, e := range entries {
		e.done <- errs[e.table]
	}
}

// shutdown is Close's feed drain: refuse new entries, wake blocked callers
// (they see the closed feed and return ErrClosed), and flush the final
// partial group so every already-accepted entry is journaled and answered.
// Runs before the server's closed channel closes, so the final group commit
// still lands in the scheduler buffer (and the journal replays it next boot).
func (f *changeFeed) shutdown() {
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	f.mu.Lock()
	f.closed = true
	entries := f.entries
	f.entries = nil
	f.rows = 0
	f.notFull.Broadcast()
	f.mu.Unlock()
	if len(entries) > 0 {
		f.deliver(entries)
	}
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
