package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	mvpp "github.com/warehousekit/mvpp"
)

const (
	readScale = 0.05
	// coldCacheCapacity is three eighths of the 32-query working set. With
	// Zipf(1.1) the LRU then hits about 0.72 of the reads, so both the
	// median (a hit) and p90 (a miss) sit well inside their mode. A quarter
	// (8) measured 0.59, below the 0.6 the issue accepts.
	coldCacheCapacity = 12
)

// runRead is read_hot (capacity 0 → the default 256) and read_cold.
func runRead(cfg runConfig, res *Result, capacity int) error {
	opts := mvpp.ServeOptions{Scale: cfg.scale(readScale), CacheCapacity: capacity}
	// Only the traced read_hot run turns the telemetry plane on, to price a
	// scrape; the server's own trace sampling stays off.
	scrape := cfg.traced && cfg.workload == "read_hot"
	if scrape {
		opts.TelemetryAddr = "127.0.0.1:0"
		opts.TraceSampleEvery = -1
	}
	w, err := bootRepeated(cfg, res, func(int) (mvpp.ServeOptions, error) { return opts, nil })
	if err != nil {
		return err
	}
	defer w.srv.Close()
	if cfg.workload == "read_cold" {
		w.simulate(res, opts.Scale) // read_hot never reaches the engine
	}

	if !cfg.traced {
		t := mergeReaders(w.readPhase(res, cfg.seed, 0, cfg.window, nil))
		setOpMetrics(res, &t.all, t.rate)
		res.set("heap_live_mb", heapLiveMB(), 0)
		return nil
	}

	base := mergeReaders(w.readPhase(res, cfg.seed, 0, cfg.window/5, nil))

	origin := time.Now()
	tracers := make([]*Tracer, clients()+1)
	for i := range tracers {
		tracers[i] = NewTracer(origin, i)
	}
	var scraper *scrapeLoop
	if scrape {
		scraper = startScraper(w.srv.TelemetryAddr(), tracers[clients()])
	}
	before := w.srv.Stats()
	t := mergeReaders(w.readPhase(res, cfg.seed, 1, cfg.window-cfg.window/5, tracers[:clients()]))
	after := w.srv.Stats()
	if scraper != nil {
		scraper.stop(res)
	}
	setOpMetrics(res, &t.all, t.rate)
	setReadLayers(res, t, before, after)
	res.set("bench.trace_overhead_pct", 100*(1-t.rate/base.rate), t.all.N())
	res.set("heap_live_mb", heapLiveMB(), 0)

	path, err := writeSpans(cfg.outDir, cfg.workload, tracers)
	if err != nil {
		return err
	}
	res.SpanFile = path
	return nil
}

// scrapeLoop GETs /metrics once per second until stopped.
type scrapeLoop struct {
	quit    chan struct{}
	done    chan struct{}
	took    []float64 // ms
	samples int
	errs    []error
}

func startScraper(addr string, tr *Tracer) *scrapeLoop {
	s := &scrapeLoop{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for n := int64(0); ; n++ {
			sp := tr.Begin("telemetry.scrape", -1, n)
			t0 := time.Now()
			samples, err := scrapeOnce("http://" + addr + "/metrics")
			tr.End(sp)
			if err != nil {
				s.errs = append(s.errs, err)
			} else {
				s.took = append(s.took, ms(time.Since(t0)))
				s.samples = samples
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the loop, waits for it, and records what it saw.
func (s *scrapeLoop) stop(res *Result) {
	close(s.quit)
	<-s.done
	res.attempt(int64(len(s.took) + len(s.errs)))
	for _, err := range s.errs {
		res.fail("telemetry scrape: %v", err)
	}
	res.set("telemetry.scrape_ms_p50", median(s.took), int64(len(s.took)))
	res.set("telemetry.scrape_samples", float64(s.samples), 0)
}

// scrapeOnce fetches the exposition and validates it: status 200 and every
// sample line is `name[{labels}] value` with a numeric value. It returns
// the number of samples.
func scrapeOnce(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	samples := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// An OpenMetrics exemplar follows " # " after the value.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return 0, fmt.Errorf("malformed sample %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			return 0, fmt.Errorf("malformed sample %q", line)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if samples == 0 {
		return 0, fmt.Errorf("empty exposition")
	}
	return samples, nil
}
