package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

const (
	mixedScale = 0.02
	// deltaFraction is a quarter of the design-time 0.01: five Fact rows and
	// one row per dimension in each batch. At 0.01 the warehouse doubles
	// within one run, every batch is slower than the one before, and the
	// writer op outgrows the sizing rule below.
	deltaFraction = 0.0025
	// writerPeriod follows the sizing rule: at least 2.5 × the measured
	// writer op (stream + flush + probe ≈ 100 ms on the reference box), so
	// the writer idles more than it works and a slower refresh shows as
	// latency, not as a growing backlog.
	writerPeriod = 250 * time.Millisecond
	readerPeriod = 500 * time.Microsecond // 2 000 reads/s
	// onTime bounds the start lateness of the batches whose ack, flush and
	// first-read medians are compared with the freshness median.
	onTime   = 2 * time.Millisecond
	restarts = 5
)

// schedule paces one open-loop generator the way a time.Ticker would: tick
// i is due at start + i·period, and a tick that comes due while the
// previous op is still running is dropped, not queued. A started op is
// therefore less than one period late, its latency is taken from its due
// time, and an op that overruns shows as missed ticks and lower ops_per_s
// instead of as a backlog that inflates every later latency. (The box has
// fsync stalls of 1–2 s in about one run in three; queued, one of them
// made the next dozen batches "late" and moved p90 by a quarter.)
type schedule struct {
	start  time.Time
	period time.Duration
	end    time.Time
	next   int64
	missed int64
}

// wait blocks until the next tick is due and returns its due time, or
// false once the schedule has ended. It sleeps through most of the wait and
// yields through the rest: time.Sleep overshoots by about a millisecond,
// twice the reader's period.
func (s *schedule) wait() (time.Time, bool) {
	due := s.start.Add(time.Duration(s.next) * s.period)
	if behind := time.Since(due); behind >= s.period {
		skip := int64(behind / s.period)
		s.missed += skip
		s.next += skip
		due = s.start.Add(time.Duration(s.next) * s.period)
	}
	if s.next > 0 && !due.Before(s.end) { // the first tick always runs
		return time.Time{}, false
	}
	s.next++
	if d := time.Until(due); d > 3*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return due, true
}

// mixedPhase is what the two generators measured over one stretch.
type mixedPhase struct {
	fresh, ack, flush, firstRead Hist // every batch that did not fail
	ackOn, flushOn, firstOn      Hist // batches that started on time
	checkpoint                   Hist
	late                         Hist // start lateness of both generators
	reads, hit, miss             Hist
	missedBatches, missedReads   int64 // ticks the generators dropped
	elapsed                      time.Duration
}

func mixedOpts(dir string) mvpp.ServeOptions {
	return mvpp.ServeOptions{
		Scale:       mixedScale,
		SnapshotDir: filepath.Join(dir, "snapshots"),
		JournalPath: filepath.Join(dir, "deltas.journal"),
	}
}

func runMixed(cfg runConfig, res *Result) error {
	scratch, err := scratchDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	var dir string
	w, err := bootRepeated(cfg, res, func(rep int) (mvpp.ServeOptions, error) {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return mvpp.ServeOptions{}, err
			}
		}
		dir = filepath.Join(scratch, fmt.Sprintf("rep%d", rep))
		return mixedOpts(dir), os.MkdirAll(dir, 0o755)
	})
	if err != nil {
		return err
	}
	defer func() { w.srv.Close() }()
	w.simulate(res, mixedScale)

	var ph *mixedPhase
	var tracers []*Tracer
	if !cfg.traced {
		ph = w.mixedPhase(cfg, res, 0, cfg.window, nil)
	} else {
		if err := journalProbe(res, scratch); err != nil {
			return err
		}
		base := w.mixedPhase(cfg, res, 0, cfg.window/5, nil)
		tracers = []*Tracer{NewTracer(time.Now(), 0)}
		ph = w.mixedPhase(cfg, res, 1, cfg.window-cfg.window/5, tracers[0])
		// Both generators are paced, so throughput cannot show what the
		// spans cost; the median freshness can.
		if b := base.fresh.Quantile(0.5); b > 0 {
			res.set("bench.trace_overhead_pct", 100*(ph.fresh.Quantile(0.5)/b-1), ph.fresh.N())
		}
	}
	setOpMetrics(res, &ph.fresh, float64(ph.fresh.N())/ph.elapsed.Seconds())
	res.set("heap_live_mb", heapLiveMB(), 0)
	w.setMixedLayers(res, ph)

	if err := w.restartChecks(cfg, res, dir); err != nil {
		return err
	}
	if tracers != nil {
		path, err := writeSpans(cfg.outDir, cfg.workload, tracers)
		if err != nil {
			return err
		}
		res.SpanFile = path
	}
	return nil
}

// mixedPhase runs the writer and the reader on their schedules for d.
func (w *warehouse) mixedPhase(cfg runConfig, res *Result, phase int, d time.Duration, tr *Tracer) *mixedPhase {
	ph := &mixedPhase{}
	ctx := context.Background()
	probe := w.spec.Queries[0].Name
	start := time.Now().Add(5 * time.Millisecond)
	writer := schedule{start: start, period: writerPeriod, end: start.Add(d)}
	reader := schedule{start: start, period: readerPeriod, end: start.Add(d)}
	var wg sync.WaitGroup

	// The writer. Its spans go to tr; the reader records none, because one
	// tracer belongs to one goroutine and 2 000 spans/s of hits say nothing
	// the hit/miss histograms do not.
	wg.Add(1)
	var writerLate Hist
	go func() {
		defer wg.Done()
		for {
			due, ok := writer.wait()
			if !ok {
				return
			}
			began := time.Now()
			late := began.Sub(due)
			writerLate.Add(late)
			res.attempt(1)
			w.batches++
			i := w.batches

			root := tr.Begin("fresh.batch", -1, i)
			sp := tr.Begin("serve.cdc_ack", root, i)
			rows, err := w.srv.StreamDeltas(deltaFraction)
			acked := time.Now()
			tr.End(sp)
			w.batchRows += int64(rows)
			if err != nil {
				tr.End(root)
				res.fail("batch %d: StreamDeltas: %v", i, err)
				continue
			}
			sp = tr.Begin("serve.flush", root, i)
			err = w.srv.Flush()
			flushed := time.Now()
			tr.End(sp)
			if err != nil {
				tr.End(root)
				res.fail("batch %d: Flush: %v", i, err)
				continue
			}
			landed := w.srv.Epoch()
			sp = tr.Begin("serve.first_read", root, i)
			var seen time.Time
			for {
				r, err := w.srv.Query(ctx, probe)
				if !w.checkAnswer(res, 0, r, err, false) {
					break
				}
				if r.Epoch >= landed {
					seen = time.Now()
					break
				}
			}
			tr.End(sp)
			tr.End(root)
			if !seen.IsZero() {
				ph.fresh.Add(seen.Sub(due))
				ph.ack.Add(acked.Sub(began))
				ph.flush.Add(flushed.Sub(acked))
				ph.firstRead.Add(seen.Sub(flushed))
				if late <= onTime {
					ph.ackOn.Add(acked.Sub(began))
					ph.flushOn.Add(flushed.Sub(acked))
					ph.firstOn.Add(seen.Sub(flushed))
				}
			}
			// A background checkpoint that committed since the last batch:
			// read its duration off the server rather than forcing one, so
			// the traced run checkpoints exactly as the untraced one does.
			if snap := w.srv.SnapshotStats(); snap.Checkpoints > w.checkpoints {
				w.checkpoints = snap.Checkpoints
				ph.checkpoint.Add(snap.LastDuration)
			}
		}
	}()

	wg.Add(1)
	var readerLate Hist
	var readOps int64
	go func() {
		defer wg.Done()
		z := NewZipf(cfg.seed, 2+phase, len(w.spec.Queries))
		for {
			due, ok := reader.wait()
			if !ok {
				return
			}
			readerLate.Add(time.Since(due))
			rank := z.Next()
			r, err := w.srv.Query(ctx, w.spec.Queries[rank].Name)
			lat := time.Since(due)
			readOps++
			if !w.checkAnswer(res, rank, r, err, false) {
				continue
			}
			ph.reads.Add(lat)
			if r.Cached {
				ph.hit.Add(lat)
			} else {
				ph.miss.Add(lat)
			}
		}
	}()
	wg.Wait()
	ph.elapsed = time.Since(start)
	res.attempt(readOps)
	ph.late.Merge(&writerLate)
	ph.late.Merge(&readerLate)
	ph.missedBatches, ph.missedReads = writer.missed, reader.missed
	return ph
}

// setMixedLayers fills the ingest, refresh and checkpoint metrics from the
// phase and from the server's counters since boot.
func (w *warehouse) setMixedLayers(res *Result, ph *mixedPhase) {
	st := w.srv.Stats()
	snap := w.srv.SnapshotStats()
	n := ph.fresh.N()
	tailMs := func(name string, h *Hist, want float64) {
		v, p := h.Tail(want)
		res.setNote(name, nsToMs(v), h.N(), tailNote(p, h.N()))
	}
	res.set("serve.cdc_ack_ms_p50", nsToMs(ph.ack.Quantile(0.5)), n)
	tailMs("serve.cdc_ack_ms_p90", &ph.ack, 0.90)
	res.set("serve.flush_ms_p50", nsToMs(ph.flush.Quantile(0.5)), n)
	tailMs("serve.flush_ms_p90", &ph.flush, 0.90)
	res.set("serve.first_read_us_p50", nsToUs(ph.firstRead.Quantile(0.5)), n)
	res.set("serve.read_us_p50", nsToUs(ph.reads.Quantile(0.5)), ph.reads.N())
	v, p := ph.reads.Tail(0.95)
	res.setNote("serve.read_us_p95", nsToUs(v), ph.reads.N(), tailNote(p, ph.reads.N()))
	res.set("serve.hit_us_p50", nsToUs(ph.hit.Quantile(0.5)), ph.hit.N())
	res.set("serve.miss_us_p50", nsToUs(ph.miss.Quantile(0.5)), ph.miss.N())
	if st.Queries > 0 {
		res.set("serve.cache_hit_rate", float64(st.CacheHits)/float64(st.Queries), st.Queries)
		res.set("serve.backpressured_frac", float64(st.Backpressured)/float64(st.Queries), st.Queries)
	}
	res.set("serve.rejected", float64(st.Rejected), 0)
	res.set("serve.degraded_queries", float64(st.DegradedQueries), 0)
	if w.batches > 0 {
		res.set("serve.cdc_groups_per_batch", float64(st.StreamGroups)/float64(w.batches), w.batches)
	}
	res.set("serve.cdc_lag_ms_p99", ms(st.IngestLagP99), st.StreamGroups)
	res.set("serve.cdc_blocked", float64(st.StreamBlocked), 0)
	res.set("serve.cdc_shed", float64(st.StreamShed), 0)
	res.set("serve.epochs", float64(st.Epochs), 0)
	res.set("serve.incremental_refreshes", float64(st.IncrementalRefreshes), 0)
	res.set("serve.recomputes", float64(st.Recomputes), 0)
	res.set("serve.retries", float64(st.Retries), 0)
	res.set("serve.refresh_failures", float64(st.RefreshFailures), 0)
	if st.Epochs > 0 {
		res.set("engine.refresh_blocks_per_epoch", float64(st.RefreshReads+st.RefreshWrites)/float64(st.Epochs), st.Epochs)
	}
	res.set("snapshot.checkpoint_ms_p50", nsToMs(ph.checkpoint.Quantile(0.5)), ph.checkpoint.N())
	res.set("snapshot.checkpoints", float64(snap.Checkpoints), 0)
	res.set("snapshot.skipped", float64(snap.Skipped), 0)
	res.set("snapshot.bytes", float64(snap.LastBytes), 0)
	v, p = ph.late.Tail(0.90)
	res.setNote("bench.gen_late_ms_p90", nsToMs(v), ph.late.N(), tailNote(p, ph.late.N()))
	res.set("bench.missed_batches", float64(ph.missedBatches), 0)
	res.set("bench.missed_reads", float64(ph.missedReads), 0)
	res.check(st.StreamRows == w.batchRows, "Stats().StreamRows = %d, StreamDeltas returned %d rows in all", st.StreamRows, w.batchRows)

	// fresh ≈ ack + flush + first read: what the three medians, taken over
	// the batches that began on time, leave of the freshness median.
	parts := ph.ackOn.Quantile(0.5) + ph.flushOn.Quantile(0.5) + ph.firstOn.Quantile(0.5)
	res.set("serve.fresh_unattributed_ms", nsToMs(ph.fresh.Quantile(0.5)-parts), ph.ackOn.N())
}

// answers is what a server says at one moment: a digest per query and the
// lineage fingerprint of every view.
type answers struct {
	digests []uint64
	prints  map[string]string
}

func (w *warehouse) answers(srv *mvpp.Server) (*answers, error) {
	a := &answers{prints: make(map[string]string)}
	ctx := context.Background()
	for _, q := range w.spec.Queries {
		r, err := srv.Query(ctx, q.Name)
		if err != nil {
			return nil, err
		}
		if r.Degraded {
			return nil, fmt.Errorf("query %s was answered degraded", q.Name)
		}
		a.digests = append(a.digests, digest(r))
	}
	for name, l := range srv.Lineage() {
		a.prints[name] = l.Fingerprint
	}
	return a, nil
}

// diff reports the first difference between two sets of answers.
func (a *answers) diff(b *answers) error {
	for i := range a.digests {
		if a.digests[i] != b.digests[i] {
			return fmt.Errorf("query %d digests %x and %x", i+1, a.digests[i], b.digests[i])
		}
	}
	if len(a.prints) != len(b.prints) {
		return fmt.Errorf("%d and %d view fingerprints", len(a.prints), len(b.prints))
	}
	for name, f := range a.prints {
		if b.prints[name] != f {
			return fmt.Errorf("view %s fingerprints %s and %s", name, f, b.prints[name])
		}
	}
	return nil
}

// restartChecks ends the run the way the issue asks: one batch that is
// journaled but never flushed, Close, then reopen over the same directory
// several times. Every reopen must answer as before the Close and replay
// exactly the unflushed batch; on the last one, landing that batch
// incrementally and then recomputing every view from base must agree.
func (w *warehouse) restartChecks(cfg runConfig, res *Result, dir string) error {
	before, err := w.answers(w.srv)
	if err != nil {
		return err
	}
	// Checkpoint the state just digested. A reopen restores the newest
	// snapshot and re-ingests the journal past it without landing it, so
	// only now is "answers as before the Close" what recovery promises, and
	// the journal suffix exactly the unflushed batch.
	var cp *mvpp.CheckpointResult
	for try := 0; cp == nil && err == nil && try < 50; try++ {
		if cp, err = w.srv.Checkpoint(); cp == nil && err == nil {
			time.Sleep(10 * time.Millisecond) // a background checkpoint or epoch is in flight
		}
	}
	res.check(cp != nil && err == nil, "final checkpoint: %v (result %v)", err, cp)
	unflushed, err := w.srv.StreamDeltas(deltaFraction)
	res.check(err == nil, "final StreamDeltas: %v", err)
	st := w.srv.Stats()
	res.check(st.StreamRows == w.batchRows+int64(unflushed),
		"Stats().StreamRows = %d after the unflushed batch, want %d", st.StreamRows, w.batchRows+int64(unflushed))
	if err := w.srv.Close(); err != nil {
		return err
	}

	n := restarts
	if cfg.quick {
		n = 2
	}
	opts := mixedOpts(dir)
	opts.Seed = w.spec.DataSeed
	var restartMs, recoverMs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		srv, err := w.design.NewServer(opts)
		if err != nil {
			return fmt.Errorf("reopen %d: %w", i, err)
		}
		w.srv = srv
		if _, err := srv.Query(context.Background(), w.spec.Queries[0].Name); err != nil {
			return fmt.Errorf("reopen %d: first query: %w", i, err)
		}
		restartMs = append(restartMs, ms(time.Since(t0)))

		after, err := w.answers(srv)
		if err != nil {
			return fmt.Errorf("reopen %d: %w", i, err)
		}
		err = before.diff(after)
		res.check(err == nil, "reopen %d differs from before Close: %v", i, err)
		replayed := srv.Stats().ReplayedDeltaRows
		res.check(replayed == int64(unflushed), "reopen %d replayed %d rows, the unflushed batch had %d", i, replayed, unflushed)
		if rec := srv.SnapshotStats().Recovery; rec != nil {
			recoverMs = append(recoverMs, ms(rec.Duration))
			res.check(!rec.Cold, "reopen %d booted cold", i)
			res.set("snapshot.views_restored", float64(rec.ViewsRestored), 0)
			res.set("snapshot.views_recomputed", float64(rec.ViewsRecomputed), 0)
		} else {
			res.check(false, "reopen %d reports no recovery", i)
		}
		res.set("snapshot.replayed_rows", float64(replayed), 0)
		if i < n-1 {
			if err := srv.Close(); err != nil {
				return err
			}
		}
	}
	res.set("snapshot.restart_ms_p50", median(restartMs), int64(len(restartMs)))
	res.set("snapshot.recover_ms_p50", median(recoverMs), int64(len(recoverMs)))

	// Incremental ≡ recompute: land the replayed batch by delta
	// propagation, then rebuild every view from base.
	if err := w.srv.Flush(); err != nil {
		return err
	}
	inc, err := w.answers(w.srv)
	if err != nil {
		return err
	}
	if err := w.srv.RefreshAllViews(); err != nil {
		return err
	}
	rec, err := w.answers(w.srv)
	if err != nil {
		return err
	}
	err = inc.diff(rec)
	res.check(err == nil, "incremental maintenance and recomputation disagree: %v", err)
	return nil
}

// journalProbe times 200 appends of a 20-row batch to a file journal of its
// own: the fsync floor under every ingest ack.
func journalProbe(res *Result, dir string) error {
	j, err := engine.OpenFileJournal(filepath.Join(dir, "probe.journal"))
	if err != nil {
		return err
	}
	rows := make([][]algebra.Value, 20)
	for i := range rows {
		rows[i] = []algebra.Value{algebra.IntVal(int64(i))}
		for c := 0; c < numDims+1; c++ {
			rows[i] = append(rows[i], algebra.IntVal(int64(i*7+c)))
		}
	}
	var h Hist
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := j.Append("Fact", rows); err != nil {
			j.Close()
			return err
		}
		h.Add(time.Since(t0))
	}
	res.set("engine.journal_append_us_p50", nsToUs(h.Quantile(0.5)), h.N())
	return j.Close()
}
