// Command mvserve runs a designed warehouse as a live serving process: it
// designs the views for a catalog + workload (like mvdesign), builds the
// synthetic warehouse, and then drives it with concurrent clients while a
// background scheduler ingests deltas and refreshes the views.
//
// Usage:
//
//	mvserve -catalog schema.json -workload queries.json [flags]
//
// The run prints a serving report: throughput, cache hit rate, latency
// quantiles, maintenance epochs, and per-view staleness. With -drift the
// client load shifts to one query mid-run and the advisor re-selects the
// views for the observed frequencies (applied live with -apply).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/cli"
	"github.com/warehousekit/mvpp/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() (status int) {
	var (
		catalogPath   = flag.String("catalog", "", "path to the catalog JSON (required)")
		workloadPath  = flag.String("workload", "", "path to the workload JSON (required)")
		model         = flag.String("model", "paper-nlj", "cost model: paper-nlj, block-nlj, hash-join, sort-merge")
		scale         = flag.Float64("scale", 0.01, "synthetic data scale relative to catalog statistics")
		seed          = flag.Int64("seed", 1, "synthetic data seed")
		workers       = flag.Int("workers", 0, "how many cache misses may execute at once, each on its client's goroutine (0 = default)")
		queue         = flag.Int("queue", 0, "how many clients may wait for an execution slot before a newcomer counts as backpressured (0 = default)")
		cache         = flag.Int("cache", 0, "result cache capacity in entries (0 = default, negative disables)")
		batch         = flag.Int("batch", 0, "delta rows per maintenance epoch (0 = default)")
		clients       = flag.Int("clients", 4, "concurrent client goroutines")
		requests      = flag.Int("requests", 100, "queries per client")
		delta         = flag.Float64("delta", 0.02, "per-epoch synthetic insert fraction (0 disables maintenance load)")
		epochs        = flag.Int("epochs", 4, "maintenance epochs to run during the load")
		policies      = flag.String("policies", "", "per-view refresh policies, \"view=spec,view=spec\" with spec one of manual | on-commit | scheduled:<duration> | streaming")
		defPolicy     = flag.String("default-policy", "", "refresh policy for views not named in -policies (default on-commit)")
		sloMaxLag     = flag.Duration("slo-max-lag", 0, "freshness SLO: longest a view may stay stale before its queries degrade (0 = no wall-clock SLO)")
		sloMaxEpochs  = flag.Int("slo-max-epochs", 0, "freshness SLO: most maintenance epochs a view may stay stale (0 = no epoch SLO)")
		stream        = flag.Bool("stream", false, "push the delta load through the CDC streaming-ingest path (group commit, backpressure) instead of direct ingestion")
		drift         = flag.String("drift", "", "after the main load, re-run the load all on this query and consult the advisor")
		explain       = flag.String("explain", "", "after the load, print this query's plan annotated with predicted and measured block costs (\"all\" = every query)")
		noAudit       = flag.Bool("no-cost-audit", false, "disable the predicted-vs-actual cost ledger")
		skew          = flag.Float64("cost-skew", 0, "multiply every registered cost prediction by this factor (test hook for forcing calibration drift; 0 = off)")
		apply         = flag.Bool("apply", false, "apply the advisor's proposal live and re-run the load")
		chaos         = flag.Float64("chaos", 0, "fault injection probability: refresh errors at this rate, plus slow queries and worker panics at lower rates (0 disables)")
		journalPath   = flag.String("journal", "", "crash-safe delta journal path; a restart with the same -seed replays every delta its boot state lacks (every journaled delta without -snapshot-dir)")
		snapshotDir   = flag.String("snapshot-dir", "", "durable snapshot directory; boot restores the newest consistent snapshot and checkpoints land there while serving")
		snapInterval  = flag.Duration("snapshot-interval", 0, "wall-clock checkpoint period (0 keeps only the epoch-count trigger)")
		snapRetain    = flag.Int("snapshot-retain", 0, "snapshot generations retention GC keeps (0 = default 3)")
		telemetryAddr = flag.String("telemetry", "", "serve the live telemetry plane on this address (/metrics, /healthz, /views, /traces, /lineage, /flight, /debug/pprof); the run self-scrapes it after the load")
		flightDir     = flag.String("flight-dir", "", "write flight-recorder dumps to this directory when an SLO breach, breaker trip, checkpoint error, or recovery corruption latches (default $MVPP_FLIGHT_DIR)")
		logLevel      = flag.String("log-level", "", "log design spans and serving events to stderr at this level (debug, info, warn, error)")
		traceOut      = flag.String("trace-out", "", "write a JSON trace of the serving run to this file")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *catalogPath == "" || *workloadPath == "" {
		fmt.Fprintln(os.Stderr, "mvserve: -catalog and -workload are required")
		flag.Usage()
		return 2
	}
	obsy, err := cli.Setup(*logLevel, *traceOut, *pprofAddr, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvserve:", err)
		return 2
	}
	defer func() {
		if err := obsy.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mvserve: writing trace:", err)
			if status == 0 {
				status = 1
			}
		}
	}()
	kind, ok := map[string]mvpp.ModelKind{
		"paper-nlj":  mvpp.ModelPaperNLJ,
		"block-nlj":  mvpp.ModelBlockNLJ,
		"hash-join":  mvpp.ModelHashJoin,
		"sort-merge": mvpp.ModelSortMerge,
	}[*model]
	if !ok {
		fmt.Fprintf(os.Stderr, "mvserve: unknown model %q\n", *model)
		return 2
	}

	catFile, err := os.Open(*catalogPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvserve:", err)
		return 1
	}
	defer catFile.Close()
	cat, err := mvpp.LoadCatalog(catFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvserve:", err)
		return 1
	}
	wlFile, err := os.Open(*workloadPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvserve:", err)
		return 1
	}
	defer wlFile.Close()
	designer, err := mvpp.LoadWorkload(wlFile, cat, mvpp.Options{Model: kind, Observer: obsy.Observer})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvserve:", err)
		return 1
	}
	design, err := designer.Design()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvserve:", err)
		return 1
	}

	policyMap, err := parsePolicies(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvserve:", err)
		return 2
	}

	opts := mvpp.ServeOptions{
		Scale: *scale, Seed: *seed,
		Workers: *workers, QueueDepth: *queue, CacheCapacity: *cache, DeltaBatch: *batch,
		JournalPath: *journalPath,
		SnapshotDir: *snapshotDir, SnapshotInterval: *snapInterval, SnapshotRetain: *snapRetain,
		TelemetryAddr: *telemetryAddr,
		FlightDir:     *flightDir,
		Observer:      obsy.Observer,
		CostAudit:     mvpp.CostAuditOptions{Disable: *noAudit, SkewPredictions: *skew},
		Policies:      policyMap,
		DefaultPolicy: *defPolicy,
		DefaultSLO:    mvpp.FreshnessSLO{MaxLagEpochs: *sloMaxEpochs, MaxLag: *sloMaxLag},
	}
	if *chaos > 0 {
		opts.Injector = mvpp.NewFaultInjector(*seed, mvpp.FaultPlan{
			mvpp.FaultSiteEngineRefresh:            {ErrProb: *chaos},
			mvpp.FaultSiteEngineIncrementalRefresh: {ErrProb: *chaos},
			mvpp.FaultSiteEngineApplyDeltas:        {ErrProb: *chaos},
			mvpp.FaultSiteEngineExecute:            {SlowProb: *chaos / 2, Delay: 200 * time.Microsecond},
			mvpp.FaultSiteServeWorker:              {PanicProb: *chaos / 10},
		})
		// Under chaos, trip breakers quickly and probe often so the run
		// exercises the degrade/recover cycle.
		opts.Breaker = mvpp.BreakerPolicy{FailureThreshold: 2, Cooldown: 100 * time.Millisecond}
	}
	srv, err := design.NewServer(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvserve:", err)
		return 1
	}
	defer srv.Close()

	queries := design.Queries()
	fmt.Printf("serving %d queries over views %v (scale %g, seed %d)\n",
		len(queries), srv.Views(), *scale, *seed)
	if replayed := srv.Stats().ReplayedDeltaRows; replayed > 0 {
		fmt.Printf("journal: replayed %d delta rows from %s\n", replayed, *journalPath)
	}
	if ss := srv.SnapshotStats(); ss.Configured && ss.Recovery != nil {
		if r := ss.Recovery; r.Cold {
			fmt.Printf("snapshot: cold boot, no usable snapshot in %s (%d views recomputed)\n",
				*snapshotDir, r.ViewsRecomputed)
		} else {
			fmt.Printf("snapshot: restored generation %d from %s (%d base tables, %d/%d views from segments, %d bytes, %v)\n",
				r.Generation, *snapshotDir, r.BaseRestored, r.ViewsRestored,
				r.ViewsRestored+r.ViewsRecomputed, r.Bytes, r.Duration.Round(time.Millisecond))
		}
	}
	if *chaos > 0 {
		fmt.Printf("chaos: injecting faults at probability %g (refresh errors, slow queries, worker panics)\n", *chaos)
	}
	if addr := srv.TelemetryAddr(); addr != "" {
		fmt.Printf("telemetry: listening on %s (/metrics /healthz /views /traces /lineage /flight /debug/pprof)\n", addr)
	}

	tolerant := *chaos > 0
	pick := func(c, i int) string { return queries[(c+i)%len(queries)] }
	if err := drive(srv, *clients, *requests, *delta, *epochs, tolerant, *stream, pick); err != nil {
		fmt.Fprintln(os.Stderr, "mvserve:", err)
		return 1
	}
	report(srv)
	costReport(srv)
	if ss := srv.SnapshotStats(); ss.Configured {
		if _, err := srv.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "mvserve: final checkpoint:", err)
		}
		ss = srv.SnapshotStats()
		fmt.Printf("snapshot: %d checkpoints this run (%d skipped, %d failed), generation %d, %d bytes, %d generations aged out\n",
			ss.Checkpoints, ss.Skipped, ss.Failures, ss.Generation, ss.LastBytes, ss.AgedOut)
	}
	if *explain != "" {
		names := queries
		if *explain != "all" {
			names = []string{*explain}
		}
		for _, q := range names {
			out, err := srv.Explain(q)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mvserve:", err)
				return 1
			}
			fmt.Println()
			fmt.Print(out)
		}
	}
	if addr := srv.TelemetryAddr(); addr != "" {
		// Self-scrape: validate the exposition and summarize the live
		// endpoints, so a smoke run proves the plane works end to end.
		if err := scrapeReport(addr); err != nil {
			fmt.Fprintln(os.Stderr, "mvserve:", err)
			return 1
		}
	}

	if *drift != "" {
		found := false
		for _, q := range queries {
			if q == *drift {
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "mvserve: unknown drift query %q\n", *drift)
			return 2
		}
		fmt.Printf("\ndrift: load shifts entirely to %s\n", *drift)
		if err := drive(srv, *clients, *requests, *delta, 0, tolerant, *stream, func(int, int) string { return *drift }); err != nil {
			fmt.Fprintln(os.Stderr, "mvserve:", err)
			return 1
		}
		obsFq := srv.ObservedFrequencies()
		names := make([]string, 0, len(obsFq))
		for q := range obsFq {
			names = append(names, q)
		}
		sort.Strings(names)
		fmt.Println("observed frequencies (scaled to design-time volume):")
		for _, q := range names {
			fmt.Printf("  %-4s %.2f\n", q, obsFq[q])
		}
		advice, err := srv.Advise()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvserve:", err)
			return 1
		}
		fmt.Printf("advisor: keep %v, add %v, drop %v (cost %0.f -> %0.f blocks under observed load)\n",
			advice.Keep, advice.Add, advice.Drop, advice.CurrentTotal, advice.ProposedTotal)
		if !advice.Changed() {
			fmt.Println("advisor: current view set already optimal for the observed load")
		} else if *apply {
			if err := srv.ApplyAdvice(advice); err != nil {
				fmt.Fprintln(os.Stderr, "mvserve:", err)
				return 1
			}
			fmt.Printf("applied: views now %v\n", srv.Views())
			if err := drive(srv, *clients, *requests, *delta, *epochs, tolerant, *stream, func(int, int) string { return *drift }); err != nil {
				fmt.Fprintln(os.Stderr, "mvserve:", err)
				return 1
			}
			report(srv)
		}
	}
	return 0
}

// scrapeReport GETs the telemetry endpoints of a live server, validates
// the /metrics exposition, and prints a one-line summary per endpoint.
func scrapeReport(addr string) error {
	get := func(path string) (int, []byte, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return 0, nil, fmt.Errorf("telemetry: GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, nil, fmt.Errorf("telemetry: GET %s: %w", path, err)
		}
		return resp.StatusCode, body, nil
	}

	code, body, err := get("/metrics")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("telemetry: /metrics returned HTTP %d", code)
	}
	samples, err := telemetry.ValidateExposition(body)
	if err != nil {
		return fmt.Errorf("telemetry: /metrics: %w", err)
	}
	fmt.Printf("telemetry: /metrics valid Prometheus exposition, %d samples\n", samples)

	code, body, err = get("/healthz")
	if err != nil {
		return err
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		return fmt.Errorf("telemetry: /healthz: %w", err)
	}
	fmt.Printf("telemetry: /healthz %s (HTTP %d)\n", health.Status, code)

	if _, body, err = get("/traces"); err != nil {
		return err
	}
	var traces struct {
		Sampled int `json:"sampled"`
	}
	if err := json.Unmarshal(body, &traces); err != nil {
		return fmt.Errorf("telemetry: /traces: %w", err)
	}
	fmt.Printf("telemetry: /traces holds %d sampled query lifecycles\n", traces.Sampled)

	if _, body, err = get("/lineage"); err != nil {
		return err
	}
	var lineage struct {
		Views map[string]json.RawMessage `json:"views"`
	}
	if err := json.Unmarshal(body, &lineage); err != nil {
		return fmt.Errorf("telemetry: /lineage: %w", err)
	}
	fmt.Printf("telemetry: /lineage tracks %d views\n", len(lineage.Views))

	if _, body, err = get("/flight"); err != nil {
		return err
	}
	var flight struct {
		Dumps int `json:"dumps"`
	}
	if err := json.Unmarshal(body, &flight); err != nil {
		return fmt.Errorf("telemetry: /flight: %w", err)
	}
	fmt.Printf("telemetry: /flight holds %d episode dumps\n", flight.Dumps)

	code, body, err = get("/costmodel")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("telemetry: /costmodel returned HTTP %d", code)
	}
	var costmodel struct {
		Entries []struct {
			Kind string `json:"kind"`
		} `json:"entries"`
		Drifted int `json:"drifted_entries"`
	}
	if err := json.Unmarshal(body, &costmodel); err != nil {
		return fmt.Errorf("telemetry: /costmodel: %w", err)
	}
	fmt.Printf("telemetry: /costmodel holds %d ledger entries (%d drifted)\n",
		len(costmodel.Entries), costmodel.Drifted)
	return nil
}

// costReport prints the predicted-vs-actual cost ledger: per query class
// and per view refresh, the §4.1 prediction, the measured block I/O, and
// the EWMA calibration ratio. Silent when the ledger is disabled or empty.
func costReport(srv *mvpp.Server) {
	rep := srv.CostReport()
	if len(rep.Entries) == 0 {
		return
	}
	fmt.Println("\ncost accountability (predicted vs actual block I/O):")
	fmt.Printf("  %-12s %-10s %12s %12s %12s %8s %7s\n",
		"kind", "name", "predicted", "last actual", "mean actual", "ratio", "samples")
	for _, e := range rep.Entries {
		drift := ""
		if e.Drifted {
			drift = "  DRIFTED"
		}
		fmt.Printf("  %-12s %-10s %12.1f %12.0f %12.1f %8.2f %7d%s\n",
			e.Kind, e.Name, e.PredictedBlocks, e.LastActualBlocks, e.MeanActualBlocks,
			e.Ratio, e.Samples, drift)
	}
	if rep.DriftedEntries > 0 {
		fmt.Printf("  %d entries drifted beyond the calibration band\n", rep.DriftedEntries)
	}
	if recal := srv.LastRecalibration(); recal != nil {
		fmt.Printf("  advisor recalibrated on drift: keep %v, add %v, drop %v (cost %.0f -> %.0f blocks)\n",
			recal.Keep, recal.Add, recal.Drop, recal.CurrentTotal, recal.ProposedTotal)
	}
}

// parsePolicies parses the -policies flag: "view=spec,view=spec", each
// spec validated as a refresh policy.
func parsePolicies(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		view, spec, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || view == "" {
			return nil, fmt.Errorf("bad -policies entry %q (want view=spec)", pair)
		}
		if _, err := mvpp.ParseRefreshPolicy(spec); err != nil {
			return nil, fmt.Errorf("-policies %s: %v", view, err)
		}
		out[view] = spec
	}
	return out, nil
}

// drive runs clients×requests queries through the server with pick
// choosing each client's next query, while a maintenance goroutine runs
// the requested number of inject+flush epochs. When tolerant (a chaos
// run), injected query failures and maintenance failures are counted and
// reported instead of aborting the load — fault tolerance is the point.
func drive(srv *mvpp.Server, clients, requests int, delta float64, epochs int, tolerant, stream bool, pick func(c, i int) string) error {
	ctx := context.Background()
	errs := make(chan error, clients+1)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				if _, err := srv.Query(ctx, pick(c, i)); err != nil {
					if tolerant {
						failed.Add(1)
						continue
					}
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	if delta > 0 && epochs > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inject := srv.InjectDeltas
			if stream {
				inject = srv.StreamDeltas
			}
			for i := 0; i < epochs; i++ {
				if _, err := inject(delta); err != nil {
					// A shed streaming batch is backpressure working, not a
					// failed run: the rows were refused, not lost.
					if stream && errors.Is(err, mvpp.ErrBackpressure) {
						fmt.Println("stream: batch shed by backpressure")
						continue
					}
					errs <- fmt.Errorf("maintenance: %w", err)
					return
				}
				if err := srv.Flush(); err != nil {
					// Under chaos a flush can fail persistently; the deltas
					// stay buffered (and journaled) for a later epoch.
					if tolerant {
						continue
					}
					errs <- fmt.Errorf("maintenance: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	if n := failed.Load(); n > 0 {
		fmt.Printf("chaos: %d queries failed with injected faults\n", n)
	}
	return nil
}

func report(srv *mvpp.Server) {
	s := srv.Stats()
	fmt.Println("\nserving report:")
	fmt.Printf("  queries served:     %d (%.0f/sec)\n", s.Queries, s.QPS)
	fmt.Printf("  cache hit rate:     %.1f%% (%d hits, %d misses, %d entries)\n",
		100*s.CacheHitRate(), s.CacheHits, s.CacheMisses, s.CacheEntries)
	fmt.Printf("  latency p50/p95/p99: %v / %v / %v\n", s.P50, s.P95, s.P99)
	fmt.Printf("  rejected / backpressured: %d / %d\n", s.Rejected, s.Backpressured)
	fmt.Printf("  refresh epochs:     %d (%d incremental, %d recomputed, %d delta rows)\n",
		s.Epochs, s.IncrementalRefreshes, s.Recomputes, s.DeltaRows)
	fmt.Printf("  refresh I/O:        %d reads, %d writes\n", s.RefreshReads, s.RefreshWrites)
	if s.Retries+s.RefreshFailures+s.BreakerTrips+s.DegradedQueries+s.PanicsRecovered+s.ReplayedDeltaRows > 0 {
		fmt.Println("  fault tolerance:")
		fmt.Printf("    retries / refresh failures: %d / %d\n", s.Retries, s.RefreshFailures)
		fmt.Printf("    incremental fallbacks:      %d\n", s.IncrementalFallbacks)
		fmt.Printf("    breaker trips / degraded:   %d / %d\n", s.BreakerTrips, s.DegradedQueries)
		fmt.Printf("    panics recovered:           %d\n", s.PanicsRecovered)
		fmt.Printf("    journal rows replayed:      %d\n", s.ReplayedDeltaRows)
	}
	stale := srv.Staleness()
	health := srv.Health()
	views := make([]string, 0, len(stale))
	for v := range stale {
		views = append(views, v)
	}
	sort.Strings(views)
	if s.StreamRows > 0 || s.StreamShed > 0 || s.StreamBlocked > 0 {
		fmt.Println("  streaming ingest:")
		fmt.Printf("    rows / group commits:       %d / %d\n", s.StreamRows, s.StreamGroups)
		fmt.Printf("    blocked / shed:             %d / %d\n", s.StreamBlocked, s.StreamShed)
		fmt.Printf("    commit lag p50/p95/p99:     %v / %v / %v\n", s.IngestLagP50, s.IngestLagP95, s.IngestLagP99)
		accepted, committed := srv.IngestWatermarks()
		fmt.Printf("    watermarks:                 %d accepted, %d committed\n", accepted, committed)
	}
	if s.SLOViolations > 0 {
		fmt.Printf("  freshness SLO violations: %d\n", s.SLOViolations)
	}
	fmt.Println("  view staleness:")
	for _, v := range views {
		st := stale[v]
		slo := ""
		if st.SLOViolated {
			slo = ", SLO VIOLATED"
		}
		fmt.Printf("    %-10s %s, policy %s, epoch %d, %d rows pending (%s)%s\n",
			v, st.Status, st.Policy, st.Epoch, st.PendingRows, st.Strategy, slo)
	}
	fmt.Println("  view health:")
	for _, v := range views {
		h := health[v]
		line := fmt.Sprintf("    %-10s breaker %s, %d rows lag", v, h.State, h.LagRows)
		if h.Degrading {
			line += ", DEGRADING to base relations"
		}
		if h.LastError != "" {
			line += fmt.Sprintf(" (last error: %s)", h.LastError)
		}
		fmt.Println(line)
	}
}
