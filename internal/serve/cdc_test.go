package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/fault"
)

// gatedJournal wraps a journal, counts its AppendGroup calls, and can hold
// them: after hold, every append announces itself on entered and blocks
// until the returned release is called — a group commit stopped mid-write,
// without a clock.
type gatedJournal struct {
	engine.DeltaJournal
	entered chan struct{}

	mu    sync.Mutex
	calls int
	gate  chan struct{}
}

func newGatedJournal(j engine.DeltaJournal) *gatedJournal {
	// entered is sized past the appends any test here holds at once.
	return &gatedJournal{DeltaJournal: j, entered: make(chan struct{}, 16)}
}

func (g *gatedJournal) hold() (release func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		g.gate = nil
		g.mu.Unlock()
		close(gate)
	}
}

func (g *gatedJournal) appendCalls() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

func (g *gatedJournal) AppendGroup(recs []engine.DeltaRecord) (uint64, error) {
	g.mu.Lock()
	g.calls++
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		g.entered <- struct{}{}
		<-gate
	}
	return g.DeltaJournal.AppendGroup(recs)
}

// divRows is n distinct Division delta rows starting at key i.
func divRows(i int64, n int) [][]algebra.Value {
	rows := make([][]algebra.Value, n)
	for k := range rows {
		rows[k], _ = deltaPair(i + int64(k))
	}
	return rows
}

// streamAsync runs one StreamIngest call on its own goroutine.
func streamAsync(s *Server, table string, rows ...[]algebra.Value) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.StreamIngest(table, rows...) }()
	return done
}

// unlandedRecords reads the journal's records past the last landed epoch:
// those above the highest LSNHi in any view's lineage.
func unlandedRecords(t *testing.T, s *Server, j engine.DeltaJournal) []engine.DeltaRecord {
	t.Helper()
	var landed uint64
	for _, vl := range s.Lineage() {
		landed = max(landed, vl.LSNHi)
	}
	recs, err := j.RecordsSince(landed)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func journaledRows(recs []engine.DeltaRecord) int {
	n := 0
	for _, r := range recs {
		n += len(r.Rows)
	}
	return n
}

// waitBuffered polls the change feed until it holds want rows (the parked
// group of a concurrent StreamIngest) or the deadline expires.
func waitBuffered(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.feed.buffered() != want {
		if time.Now().After(deadline) {
			t.Fatalf("change feed never reached %d buffered rows (have %d)", want, s.feed.buffered())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStreamIngestGroupCommitJournals: a StreamIngest call returns only
// after its group commit journaled and staged the rows; the next Flush lands
// them in the views.
func TestStreamIngestGroupCommitJournals(t *testing.T) {
	j := engine.NewMemJournal()
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, Journal: j})
	ctx := context.Background()

	before, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}

	div, prod := deltaPair(1)
	if err := s.StreamIngest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.StreamIngest("Product", prod); err != nil {
		t.Fatal(err)
	}

	// A nil return means journaled: both batches are write-ahead records
	// no epoch has landed yet.
	if recs := unlandedRecords(t, s, j); len(recs) != 2 || recs[0].Table != "Division" || recs[1].Table != "Product" {
		t.Fatalf("unlanded journal records = %+v, want the Division and the Product batch", recs)
	}
	accepted, committed := s.IngestWatermarks()
	if accepted != 2 || committed != 2 {
		t.Errorf("watermarks = %d/%d, want 2/2 (nothing in flight)", accepted, committed)
	}
	if st := s.Staleness()["tmp2"]; st.PendingRows == 0 {
		t.Error("group-committed rows are not staged for the next epoch")
	}
	if got := s.Stats(); got.StreamRows != 2 || got.StreamGroups != 2 {
		t.Errorf("stream stats = %d rows / %d groups, want 2/2", got.StreamRows, got.StreamGroups)
	}

	// The epoch lands the staged rows: the view gains the delta row and its
	// lineage covers both records.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Table.NumRows(), before.Table.NumRows()+1; got != want {
		t.Errorf("view has %d rows after the epoch, want %d", got, want)
	}
	if recs := unlandedRecords(t, s, j); len(recs) != 0 {
		t.Errorf("journal still has %d unlanded records after the epoch landed", len(recs))
	}
}

// TestStreamBackpressureShedsAfterDeadline: a full change feed blocks the
// caller, then sheds it with ErrBackpressure once the deadline passes —
// while everything actually accepted is journaled exactly once. The feed is
// held full by a commit stopped at the journal, not by a timer.
func TestStreamBackpressureShedsAfterDeadline(t *testing.T) {
	j := newGatedJournal(engine.NewMemJournal())
	const deadline = 30 * time.Millisecond
	s, _ := serveFixture(t, Config{
		DeltaBatch: 1 << 20,
		Journal:    j,
		Ingest:     IngestConfig{BufferRows: 4, BlockDeadline: deadline},
	})

	// The leader's group is stopped inside the journal; the filler behind
	// it is admitted, fills the feed to capacity, and waits its turn.
	release := j.hold()
	leader := streamAsync(s, "Division", divRows(1, 1)...)
	<-j.entered
	filler := streamAsync(s, "Division", divRows(2, 4)...)
	waitBuffered(t, s, 4)

	// One more row does not fit: block, then shed at the deadline.
	start := time.Now()
	err := s.StreamIngest("Division", divRows(6, 1)...)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("over-capacity StreamIngest = %v, want ErrBackpressure", err)
	}
	if elapsed < deadline-5*time.Millisecond {
		t.Errorf("shed after %v, want the caller to block for ~%v first", elapsed, deadline)
	}
	if st := s.Stats(); st.StreamBlocked != 1 || st.StreamShed != 1 {
		t.Errorf("blocked/shed = %d/%d, want 1/1", st.StreamBlocked, st.StreamShed)
	}

	// A batch larger than the buffer is shed without blocking — and the
	// bound is on the batch's total, whatever its split over tables.
	_, prod := deltaPair(20)
	oversized := [][]engine.DeltaRecord{
		{{Table: "Division", Rows: divRows(7, 5)}},
		{{Table: "Division", Rows: divRows(12, 3)}, {Table: "Product", Rows: [][]algebra.Value{prod, prod}}},
	}
	for _, batch := range oversized {
		start = time.Now()
		if err := s.StreamIngestBatch(batch); !errors.Is(err, ErrBackpressure) {
			t.Fatalf("oversized batch = %v, want ErrBackpressure", err)
		}
		if since := time.Since(start); since > deadline {
			t.Errorf("oversized batch blocked for %v before shedding; want an immediate refusal", since)
		}
	}

	// Both accepted calls return nil once the journal lets go, and their 5
	// rows are journaled exactly once, in two groups. The shed rows never
	// reached the journal: accepted ⇒ journaled, shed ⇒ nothing.
	release()
	if err := <-leader; err != nil {
		t.Fatalf("the leader's call failed: %v", err)
	}
	if err := <-filler; err != nil {
		t.Fatalf("the accepted filler call failed: %v", err)
	}
	if got := journaledRows(unlandedRecords(t, s, j)); got != 5 {
		t.Errorf("journaled rows = %d, want exactly the 5 accepted", got)
	}
	if got := j.appendCalls(); got != 2 {
		t.Errorf("AppendGroup calls = %d, want 2 (shed calls never reach the journal)", got)
	}
	accepted, committed := s.IngestWatermarks()
	if accepted != 2 || committed != 2 {
		t.Errorf("watermarks = %d/%d, want 2/2 (shed calls are never accepted)", accepted, committed)
	}
}

// TestStreamCloseDrainsFeed: Close commits whatever the feed still holds —
// callers waiting behind a commit in flight get their (successful) outcome,
// the rows are journaled — and only then refuses new work. Close stays
// idempotent.
func TestStreamCloseDrainsFeed(t *testing.T) {
	j := newGatedJournal(engine.NewMemJournal())
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, Journal: j})

	release := j.hold()
	leader := streamAsync(s, "Division", divRows(1, 1)...)
	<-j.entered
	waiting := streamAsync(s, "Division", divRows(2, 2)...)
	waitBuffered(t, s, 2)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-leader; err != nil {
		t.Fatalf("StreamIngest mid-commit during Close = %v, want nil", err)
	}
	if err := <-waiting; err != nil {
		t.Fatalf("admitted StreamIngest during Close = %v, want nil (drained)", err)
	}
	if rows := journaledRows(unlandedRecords(t, s, j)); rows != 3 {
		t.Errorf("journaled rows after the Close drain = %d, want 3", rows)
	}
	accepted, committed := s.IngestWatermarks()
	if accepted != 2 || committed != 2 {
		t.Errorf("watermarks after Close = %d/%d, want 2/2", accepted, committed)
	}

	if err := s.StreamIngest("Division", divRows(4, 1)...); !errors.Is(err, ErrClosed) {
		t.Errorf("StreamIngest after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestStreamBatchOneGroup: a multi-table batch is one admission and one
// group — one AppendGroup, one record per table with consecutive LSNs in the
// caller's order — and is refused whole when any part of it is invalid.
func TestStreamBatchOneGroup(t *testing.T) {
	j := newGatedJournal(engine.NewMemJournal())
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, Journal: j})

	// Seven records over the fixture's tables (it has five; two repeat).
	var batch []engine.DeltaRecord
	for i := int64(1); len(batch) < 7; i++ {
		div, prod := deltaPair(i)
		batch = append(batch,
			engine.DeltaRecord{Table: "Division", Rows: [][]algebra.Value{div}},
			engine.DeltaRecord{Table: "Product", Rows: [][]algebra.Value{prod}})
	}
	batch = batch[:7]
	before := s.Stats()
	if err := s.StreamIngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got := st.StreamGroups - before.StreamGroups; got != 1 {
		t.Errorf("StreamGroups grew by %d, want 1", got)
	}
	if got := st.StreamRows - before.StreamRows; got != 7 {
		t.Errorf("StreamRows grew by %d, want 7", got)
	}
	if got := j.appendCalls(); got != 1 {
		t.Errorf("AppendGroup calls = %d, want 1", got)
	}
	recs := unlandedRecords(t, s, j)
	if len(recs) != 7 {
		t.Fatalf("journal holds %d records, want 7", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Table != batch[i].Table || len(r.Rows) != 1 {
			t.Errorf("record %d = LSN %d, table %s, %d rows; want LSN %d, %s, 1 row",
				i, r.LSN, r.Table, len(r.Rows), i+1, batch[i].Table)
		}
	}
	if accepted, committed := s.IngestWatermarks(); accepted != 1 || committed != 1 {
		t.Errorf("watermarks = %d/%d, want 1/1", accepted, committed)
	}
	if pending := s.Staleness()["tmp2"].PendingRows; pending != 7 {
		t.Errorf("tmp2 pending rows = %d, want 7", pending)
	}

	// All-or-nothing: one bad record refuses the whole batch at admission.
	div, _ := deltaPair(50)
	for name, bad := range map[string]engine.DeltaRecord{
		"row width":     {Table: "Product", Rows: [][]algebra.Value{div[:2]}},
		"unknown table": {Table: "Nowhere", Rows: [][]algebra.Value{div}},
	} {
		err := s.StreamIngestBatch([]engine.DeltaRecord{{Table: "Division", Rows: [][]algebra.Value{div}}, bad})
		if err == nil {
			t.Errorf("%s: the batch was accepted", name)
		}
	}
	if got := j.appendCalls(); got != 1 {
		t.Errorf("a refused batch reached the journal (%d AppendGroup calls)", got)
	}
	if accepted, _ := s.IngestWatermarks(); accepted != 1 {
		t.Errorf("a refused batch was admitted to the feed (accepted = %d)", accepted)
	}
	if pending := s.Staleness()["tmp2"].PendingRows; pending != 7 {
		t.Errorf("a refused batch staged rows (tmp2 pending = %d)", pending)
	}
}

// TestFollowersShareNextGroup: callers admitted while a leader's group is
// inside the journal all ride the next group — one more AppendGroup, not one
// each — and the journal keeps the feed's arrival order.
func TestFollowersShareNextGroup(t *testing.T) {
	j := newGatedJournal(engine.NewMemJournal())
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, Journal: j})

	release := j.hold()
	leader := streamAsync(s, "Division", divRows(1, 1)...)
	<-j.entered
	const k = 4
	var followers []<-chan error
	for i := 0; i < k; i++ {
		// Alternate tables, and wait for each admission so the arrival
		// order is known.
		div, prod := deltaPair(int64(10 + i))
		if i%2 == 0 {
			followers = append(followers, streamAsync(s, "Division", div))
		} else {
			followers = append(followers, streamAsync(s, "Product", prod))
		}
		waitBuffered(t, s, i+1)
	}
	release()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	for i, done := range followers {
		if err := <-done; err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
	}
	if got := j.appendCalls(); got != 2 {
		t.Errorf("AppendGroup calls = %d, want 2 (the leader's group and one for all %d followers)", got, k)
	}
	if got := s.Stats().StreamGroups; got != 2 {
		t.Errorf("StreamGroups = %d, want 2", got)
	}
	recs := unlandedRecords(t, s, j)
	if len(recs) != 1+k {
		t.Fatalf("journal holds %d records, want %d", len(recs), 1+k)
	}
	for i, r := range recs[1:] {
		want := "Division"
		if i%2 == 1 {
			want = "Product"
		}
		if r.Table != want || r.LSN != uint64(i+2) || r.Rows[0][0].Int%100 != int64(10+i) {
			t.Errorf("journal record %d = LSN %d %s key %d, want LSN %d %s key …%d (arrival order)",
				i+1, r.LSN, r.Table, r.Rows[0][0].Int, i+2, want, 10+i)
		}
	}
	if accepted, committed := s.IngestWatermarks(); accepted != 1+k || committed != 1+k {
		t.Errorf("watermarks = %d/%d, want %d/%d", accepted, committed, 1+k, 1+k)
	}
}

// TestMissDoesNotWaitOnJournal: a cache miss completes while an append —
// streamed or direct — is stopped inside the journal. The journal's write
// happens outside the scheduler's buffer lock, and a miss takes no scheduler
// lock to begin with (TestMissTakesNoSchedulerLock).
func TestMissDoesNotWaitOnJournal(t *testing.T) {
	j := newGatedJournal(engine.NewMemJournal())
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, Journal: j})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	div, prod := deltaPair(1)
	for _, tc := range []struct {
		query  string
		ingest func() error
	}{
		{"QLA", func() error { return s.StreamIngest("Division", div) }},
		{"QCust", func() error { return s.Ingest("Product", prod) }},
	} {
		staged := s.Staleness()["tmp2"].PendingRows
		release := j.hold()
		done := make(chan error, 1)
		go func() { done <- tc.ingest() }()
		<-j.entered
		res, err := s.Query(ctx, tc.query)
		if err != nil {
			t.Fatalf("%s while an append is inside the journal: %v", tc.query, err)
		}
		if res.Cached {
			t.Fatalf("%s was a cache hit; the test needs a miss", tc.query)
		}
		if got := s.Staleness()["tmp2"].PendingRows; got != staged {
			t.Errorf("rows were staged before their group was journaled (tmp2 pending %d → %d)", staged, got)
		}
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamJournalAppendFaultRefusesGroup: an append fault refuses the
// group as a whole — every caller in it gets the error, the journal file is
// byte-identical, the LSN sequence is unmoved, nothing is staged and no
// view's pending count moves.
func TestStreamJournalAppendFaultRefusesGroup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.wal")
	fj, err := engine.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	j := newGatedJournal(fj)
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, Journal: j})

	// One durable record first, so "byte-identical" is not "empty". The
	// epoch that lands it writes nothing to the journal.
	if err := s.StreamIngest("Division", divRows(1, 1)...); err != nil {
		t.Fatal(err)
	}
	journaled, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journaled, before) {
		t.Errorf("the epoch wrote to the journal:\nbefore %q\nafter  %q", journaled, before)
	}
	stBefore := s.Stats()

	// A leader and three followers: two groups, both hit the fault.
	release := j.hold()
	calls := []<-chan error{streamAsync(s, "Division", divRows(2, 1)...)}
	<-j.entered
	for i := 0; i < 3; i++ {
		calls = append(calls, streamAsync(s, "Division", divRows(int64(3+i), 1)...))
		waitBuffered(t, s, i+1)
	}
	fj.SetInjector(fault.New(1, fault.Plan{fault.SiteJournalAppend: {ErrProb: 1}}))
	release()
	for i, done := range calls {
		if err := <-done; !errors.Is(err, fault.ErrInjected) {
			t.Errorf("caller %d of a refused group got %v, want the injected error", i, err)
		}
	}
	if err := s.Ingest("Division", divRows(9, 1)...); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("direct Ingest under the append fault = %v, want the injected error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("a refused group changed the journal file:\nbefore %q\nafter  %q", before, after)
	}
	s.sched.mu.Lock()
	staged, batches := s.sched.bufRows, s.sched.bufBatches
	s.sched.mu.Unlock()
	if staged != 0 || batches != 0 {
		t.Errorf("a refused group staged %d rows in %d records", staged, batches)
	}
	for name, vs := range s.Staleness() {
		if vs.PendingRows != 0 {
			t.Errorf("view %s pending rows = %d after refused groups, want 0", name, vs.PendingRows)
		}
	}
	st := s.Stats()
	if st.StreamGroups != stBefore.StreamGroups || st.StreamRows != stBefore.StreamRows || st.DeltaRows != stBefore.DeltaRows {
		t.Errorf("refused groups were counted: groups %d→%d, stream rows %d→%d, delta rows %d→%d",
			stBefore.StreamGroups, st.StreamGroups, stBefore.StreamRows, st.StreamRows, stBefore.DeltaRows, st.DeltaRows)
	}
	if accepted, committed := s.IngestWatermarks(); accepted != committed {
		t.Errorf("watermarks %d/%d: a refused entry is still in flight", accepted, committed)
	}

	// Disarmed, the next group takes the LSN the refused ones never used.
	fj.SetInjector(nil)
	if err := s.StreamIngest("Division", divRows(10, 1)...); err != nil {
		t.Fatal(err)
	}
	if recs := unlandedRecords(t, s, j); len(recs) != 1 || recs[0].LSN != 2 {
		t.Errorf("unlanded after the fault cleared = %+v, want one record at LSN 2", recs)
	}
}

// TestStreamEpochsPartitionJournal: with the fsync outside the buffer lock,
// an epoch's watermark must still cover exactly the rows it staged. Four
// producers stream beside two Flush loops; afterwards the lineage ranges
// (lo, hi] of the landed epochs tile the journal with no gap or overlap, each
// range holds exactly the records and rows its epoch drained, and every row
// landed once. An epoch aborted in the middle (ApplyDeltas failing past its
// retries) lands nothing and moves no watermark, so its records belong to
// the range of the epoch that retries them.
func TestStreamEpochsPartitionJournal(t *testing.T) {
	j := engine.NewMemJournal()
	inj := fault.New(1, fault.Plan{})
	s, db := serveFixture(t, Config{DeltaBatch: 1 << 20, Journal: j, Injector: inj, Retry: fastRetry})
	db.SetInjector(inj)
	ctx := context.Background()
	base, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	divBefore, _ := db.Table("Division")
	divRowsBefore := divBefore.NumRows()

	const producers, batches = 4, 6 // ≤ lineageKeep epochs in all
	var wg, flushers sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, producers+2)
	for f := 0; f < 2; f++ {
		flushers.Add(1)
		go func() {
			defer flushers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Flush(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				div, prod := deltaPair(int64(p*batches + b))
				err := s.StreamIngestBatch([]engine.DeltaRecord{
					{Table: "Division", Rows: [][]algebra.Value{div}},
					{Table: "Product", Rows: [][]algebra.Value{prod}},
				})
				if err != nil {
					errs <- fmt.Errorf("producer %d batch %d: %w", p, b, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	flushers.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// One aborted epoch, its retry together with a later batch, and one more
	// epoch after it.
	const pairs = producers*batches + 3
	streamPair := func(i int64) {
		t.Helper()
		div, prod := deltaPair(i)
		if err := s.StreamIngestBatch([]engine.DeltaRecord{
			{Table: "Division", Rows: [][]algebra.Value{div}},
			{Table: "Product", Rows: [][]algebra.Value{prod}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	streamPair(pairs - 3)
	inj.SetRule(fault.SiteEngineApplyDeltas, fault.Rule{ErrProb: 1})
	if err := s.Flush(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Flush with ApplyDeltas failing returned %v", err)
	}
	inj.Disarm()
	if pend := unlandedRecords(t, s, j); len(pend) != 2 {
		t.Fatalf("%d records unlanded after the aborted epoch, want its 2", len(pend))
	}
	streamPair(pairs - 2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	streamPair(pairs - 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	all, err := j.RecordsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2*pairs {
		t.Fatalf("journal holds %d records, want %d", len(all), 2*pairs)
	}
	entries := s.Lineage()["tmp2"].Entries
	var floor uint64
	for _, e := range entries {
		if e.LSNLo != floor || e.LSNHi <= e.LSNLo {
			t.Fatalf("epoch %d covers (%d, %d], want a range starting at %d: the ranges do not partition the journal",
				e.Epoch, e.LSNLo, e.LSNHi, floor)
		}
		recs, rows := 0, 0
		for _, r := range all {
			if r.LSN > e.LSNLo && r.LSN <= e.LSNHi {
				recs++
				rows += len(r.Rows)
			}
		}
		if recs != e.DeltaBatches || rows != e.DeltaRows {
			t.Errorf("epoch %d drained %d records / %d rows but its range (%d, %d] holds %d / %d",
				e.Epoch, e.DeltaBatches, e.DeltaRows, e.LSNLo, e.LSNHi, recs, rows)
		}
		floor = e.LSNHi
	}
	if last := all[len(all)-1].LSN; floor != last {
		t.Errorf("the lineage ends at LSN %d, the journal at %d", floor, last)
	}
	if pend := unlandedRecords(t, s, j); len(pend) != 0 {
		t.Errorf("%d records still unlanded after the final Flush", len(pend))
	}
	after, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Table.NumRows(), base.Table.NumRows()+pairs; got != want {
		t.Errorf("QLA has %d rows, want %d (every pair landed once)", got, want)
	}
	divAfter, _ := db.Table("Division")
	if got, want := divAfter.NumRows(), divRowsBefore+pairs; got != want {
		t.Errorf("Division has %d rows, want %d", got, want)
	}
}

// BenchmarkGroupCommit measures the ack — StreamIngestBatch to its return —
// against a file journal: 1 or 7 records per batch, 1 or 4 producers. It
// reports fsyncs/batch (AppendGroup calls, each one write and one fsync, per
// batch): 1 for a lone producer whatever the batch's width, below 1 when
// producers share groups.
func BenchmarkGroupCommit(b *testing.B) {
	for _, tables := range []int{1, 7} {
		for _, producers := range []int{1, 4} {
			b.Run(fmt.Sprintf("tables=%d/producers=%d", tables, producers), func(b *testing.B) {
				fj, err := engine.OpenFileJournal(filepath.Join(b.TempDir(), "bench.wal"))
				if err != nil {
					b.Fatal(err)
				}
				defer fj.Close()
				j := newGatedJournal(fj)
				s, _ := serveFixture(b, Config{DeltaBatch: 1 << 30, Journal: j})
				// 20 rows a record, over the two tables the fixture's
				// incremental view reads.
				var batch []engine.DeltaRecord
				for i := 0; i < tables; i++ {
					rec := engine.DeltaRecord{Table: "Division", Rows: make([][]algebra.Value, 20)}
					if i%2 == 1 {
						rec.Table = "Product"
					}
					for k := range rec.Rows {
						div, prod := deltaPair(int64(i*20 + k))
						rec.Rows[k] = div
						if i%2 == 1 {
							rec.Rows[k] = prod
						}
					}
					batch = append(batch, rec)
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					n := b.N / producers
					if p == 0 {
						n += b.N % producers
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if err := s.StreamIngestBatch(batch); err != nil {
								b.Error(err)
								return
							}
						}
					}(n)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(j.appendCalls())/float64(b.N), "fsyncs/batch")
			})
		}
	}
}
