package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	mvpp "github.com/warehousekit/mvpp"
)

// warehouse is a booted server with the reference answers of its queries.
type warehouse struct {
	spec   *Spec
	design *mvpp.Design
	srv    *mvpp.Server
	// refRows and refDigest come from the uncached first pass, one entry per
	// query in spec order.
	refRows   []int
	refDigest []uint64
	newServer time.Duration
	// batches and batchRows count what mixed_fresh streamed into srv.
	batches, batchRows int64
	// checkpoints is the last SnapshotStats().Checkpoints the writer saw.
	checkpoints int64
}

// boot is one set-up: generator, design, cold NewServer, an uncached pass
// over every query (the reference) and a second pass that leaves the caches
// warm. opts may depend on the repetition (mixed_fresh boots each one over
// a fresh directory).
func boot(seed int64, opts mvpp.ServeOptions) (*warehouse, error) {
	w := &warehouse{spec: Generate(seed)}
	var err error
	if w.design, err = designOnce(w.spec); err != nil {
		return nil, err
	}
	opts.Seed = w.spec.DataSeed
	t0 := time.Now()
	if w.srv, err = w.design.NewServer(opts); err != nil {
		return nil, err
	}
	w.newServer = time.Since(t0)
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ {
		for _, q := range w.spec.Queries {
			r, err := w.srv.Query(ctx, q.Name)
			if err != nil {
				w.srv.Close()
				return nil, fmt.Errorf("warm-up %s: %w", q.Name, err)
			}
			if pass == 0 {
				w.refRows = append(w.refRows, r.NumRows())
				w.refDigest = append(w.refDigest, digest(r))
			}
		}
	}
	return w, nil
}

// bootRepeated sets up cfg.setupReps() times, keeps the last warehouse and
// reports the median set-up time. optsFor builds the options of one
// repetition.
func bootRepeated(cfg runConfig, res *Result, optsFor func(rep int) (mvpp.ServeOptions, error)) (*warehouse, error) {
	var setups []float64
	var w *warehouse
	for rep := 0; rep < cfg.setupReps(); rep++ {
		if w != nil {
			if err := w.srv.Close(); err != nil {
				return nil, err
			}
		}
		opts, err := optsFor(rep)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if w, err = boot(cfg.seed, opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups), int64(len(setups)))
	res.set("mvpp.newserver_ms", ms(w.newServer), 0)
	return w, nil
}

// simulate runs Design.Simulate once, outside the timed set-up: it checks
// that every query returns the same rows with and without the views, and
// gives the exact block counts of the engine layer.
func (w *warehouse) simulate(res *Result, scale float64) {
	t0 := time.Now()
	sim, err := w.design.Simulate(mvpp.SimOptions{Scale: scale, Seed: w.spec.DataSeed, DeltaFraction: deltaFraction})
	res.check(err == nil, "simulate: %v", err)
	if err != nil {
		return
	}
	res.set("engine.simulate_ms", ms(time.Since(t0)), 0)
	var direct, rewritten int64
	for _, q := range sim.PerQuery {
		direct += q.DirectReads
		rewritten += q.RewrittenReads
	}
	res.set("engine.query_blocks_direct", float64(direct), 0)
	res.set("engine.query_blocks_rewritten", float64(rewritten), 0)
	res.set("engine.refresh_blocks_recompute", float64(sim.RefreshIO), 0)
	res.set("engine.refresh_blocks_incremental", float64(sim.IncrementalRefreshIO), 0)
}

// checkAnswer verifies one read against the reference. exact is false on
// mixed_fresh, where inserts only ever add rows.
func (w *warehouse) checkAnswer(res *Result, rank int, r *mvpp.QueryResult, err error, exact bool) bool {
	name := w.spec.Queries[rank].Name
	switch {
	case err != nil:
		res.fail("query %s: %v", name, err)
	case r.Degraded:
		res.fail("query %s was answered degraded", name)
	case exact && r.NumRows() != w.refRows[rank]:
		res.fail("query %s returned %d rows, the reference has %d", name, r.NumRows(), w.refRows[rank])
	case !exact && r.NumRows() < w.refRows[rank]:
		res.fail("query %s returned %d rows, fewer than the %d before any insert", name, r.NumRows(), w.refRows[rank])
	default:
		return true
	}
	return false
}

// readClient is one closed-loop reader and what it measured.
type readClient struct {
	all, hit, miss Hist
	ops            int64
	missReads      int64
	// active is the time spent in the loop with the clock running: digest
	// checks stop it.
	active time.Duration
	tr     *Tracer
}

// digestEvery is how often a reader digests the full answer instead of
// only counting its rows.
const digestEvery = 1024

// readPhase runs the closed-loop readers for d and returns them. With
// tracers, each op is also a span.
func (w *warehouse) readPhase(res *Result, seed int64, phase int, d time.Duration, tracers []*Tracer) []*readClient {
	n := clients()
	cs := make([]*readClient, n)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = &readClient{}
		if tracers != nil {
			cs[i].tr = tracers[i]
		}
		wg.Add(1)
		go func(c *readClient, id int) {
			defer wg.Done()
			ctx := context.Background()
			z := NewZipf(seed, phase*n+id, len(w.spec.Queries))
			start := time.Now()
			deadline := start.Add(d)
			var stopped time.Duration
			for now := start; now.Before(deadline); {
				rank := z.Next()
				sp := c.tr.Begin("serve.query", -1, c.ops)
				t0 := time.Now()
				r, err := w.srv.Query(ctx, w.spec.Queries[rank].Name)
				now = time.Now()
				c.tr.End(sp)
				lat := now.Sub(t0)
				c.ops++
				if !w.checkAnswer(res, rank, r, err, true) {
					continue
				}
				c.all.Add(lat)
				if r.Cached {
					c.hit.Add(lat)
				} else {
					c.miss.Add(lat)
					c.missReads += r.Reads
				}
				if c.ops%digestEvery == 0 {
					if got := digest(r); got != w.refDigest[rank] {
						res.fail("query %s digest %x, the reference is %x", w.spec.Queries[rank].Name, got, w.refDigest[rank])
					}
					after := time.Now()
					stopped += after.Sub(now)
					now = after
				}
			}
			c.active = time.Since(start) - stopped
		}(cs[i], i)
	}
	wg.Wait()
	for _, c := range cs {
		res.attempt(c.ops)
	}
	return cs
}

// readTotals merges the clients of one phase.
type readTotals struct {
	all, hit, miss Hist
	missReads      int64
	// rate is the sum of the clients' correct ops per active second.
	rate float64
}

func mergeReaders(cs []*readClient) *readTotals {
	t := &readTotals{}
	for _, c := range cs {
		t.all.Merge(&c.all)
		t.hit.Merge(&c.hit)
		t.miss.Merge(&c.miss)
		t.missReads += c.missReads
		t.rate += float64(c.all.N()) / c.active.Seconds()
	}
	return t
}

// setReadLayers fills the read-path per-layer metrics from a phase and the
// server counters it moved.
func setReadLayers(res *Result, t *readTotals, before, after mvpp.ServeStats) {
	res.set("serve.read_us_p50", nsToUs(t.all.Quantile(0.5)), t.all.N())
	v, p := t.all.Tail(0.95)
	res.setNote("serve.read_us_p95", nsToUs(v), t.all.N(), tailNote(p, t.all.N()))
	res.set("serve.hit_us_p50", nsToUs(t.hit.Quantile(0.5)), t.hit.N())
	v, p = t.hit.Tail(0.95)
	res.setNote("serve.hit_us_p95", nsToUs(v), t.hit.N(), tailNote(p, t.hit.N()))
	res.set("serve.miss_us_p50", nsToUs(t.miss.Quantile(0.5)), t.miss.N())
	v, p = t.miss.Tail(0.95)
	res.setNote("serve.miss_us_p95", nsToUs(v), t.miss.N(), tailNote(p, t.miss.N()))
	if n := t.miss.N(); n > 0 {
		res.set("engine.miss_blocks_per_query", float64(t.missReads)/float64(n), n)
	}
	if q := after.Queries - before.Queries; q > 0 {
		res.set("serve.cache_hit_rate", float64(after.CacheHits-before.CacheHits)/float64(q), q)
		res.set("serve.backpressured_frac", float64(after.Backpressured-before.Backpressured)/float64(q), q)
	}
	res.set("serve.rejected", float64(after.Rejected-before.Rejected), 0)
	res.set("serve.degraded_queries", float64(after.DegradedQueries-before.DegradedQueries), 0)
}
