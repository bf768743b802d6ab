// Command bench is the repository's benchmark: four workloads over the
// designer, the read path and the freshness path, five end-to-end metrics
// with regression bounds, and per-layer metrics from a traced rerun. See
// README.md.
//
//	go run ./bench -seed 1                          every workload, untraced then traced
//	go run ./bench -quick                           the same in a few seconds, checks only
//	go run ./bench -workload read_cold -trace 1     one run, one JSON line (the driver's form)
//	go run ./bench -compare a.json b.json           two reports of the first form, side by side
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print one JSON result line; empty runs all four and prints a report")
		seed     = flag.Int64("seed", 1, "seed of the input generator")
		seconds  = flag.Float64("seconds", 30, "measured seconds per untraced run; in a report the traced rerun takes a third of it")
		trace    = flag.Int("trace", 0, "with -workload: 1 records the harness's spans and prints the per-layer metrics")
		runs     = flag.Int("runs", 1, "report mode: repeat the untraced runs on this many consecutive seeds")
		quick    = flag.Bool("quick", false, "report mode: the smoke test's settings (0.5 s windows, one set-up, small warehouses, no lateness failures)")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for span files, reports and scratch data")
		compare  = flag.Bool("compare", false, "compare the two report files given as arguments")
	)
	flag.Parse()
	out := absOut(*outDir)
	window := time.Duration(*seconds * float64(time.Second))

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare a.json b.json")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = driverRun(os.Stdout, runConfig{workload: *workload, seed: *seed, window: window, traced: *trace != 0, outDir: out})
	default:
		err = report(os.Stdout, *seed, *runs, window, *quick, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = fmt.Errorf("a correctness check failed")

// driverRun is one run in the driver's form: the last line of standard
// output is one JSON object with the end-to-end metrics (untraced) or the
// per-layer metrics (traced).
func driverRun(out io.Writer, cfg runConfig) error {
	res, err := run(cfg)
	if err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		line.Metrics[d.Name] = value{res.Metrics[d.Name].Value, d.Unit} // 0 where the layer is not in this workload
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", data)
	if res.Failed > 0 {
		return errIncorrect
	}
	return nil
}

// environment is recorded in every report; compare refuses to set two
// different ones side by side.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnvironment() environment {
	env := environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// reportFile is what report mode writes and compare reads.
type reportFile struct {
	Env     environment `json:"env"`
	Seconds float64     `json:"seconds"`
	Runs    []*Result   `json:"runs"`
}

// report runs every workload untraced on each seed, reruns each traced on
// the first seed, prints every metric with unit and sample count, and
// writes the report file.
func report(out io.Writer, seed int64, runs int, window time.Duration, quick bool, outDir string) error {
	traced := window / 3
	if quick {
		window, traced = 500*time.Millisecond, 500*time.Millisecond
	}
	rep := reportFile{Env: currentEnvironment(), Seconds: window.Seconds()}
	fmt.Fprintf(out, "environment: %s GOMAXPROCS=%d NumCPU=%d cpu=%q clients=%d\n",
		rep.Env.GoVersion, rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.CPUModel, clients())
	failed := false
	one := func(cfg runConfig) error {
		res, err := run(cfg)
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, res)
		printResult(out, res)
		failed = failed || res.Failed > 0
		return nil
	}
	for s := seed; s < seed+int64(runs); s++ {
		for _, w := range workloads {
			if err := one(runConfig{workload: w.Name, seed: s, window: window, quick: quick, outDir: outDir}); err != nil {
				return err
			}
		}
	}
	for _, w := range workloads {
		if err := one(runConfig{workload: w.Name, seed: seed, window: traced, traced: true, quick: quick, outDir: outDir}); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("report-seed%d.json", seed))
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nreport written to %s\n", path)
	if failed {
		return errIncorrect
	}
	return nil
}

// printResult prints one run: the end-to-end metrics of an untraced run,
// the per-layer metrics that apply of a traced one.
func printResult(out io.Writer, res *Result) {
	mode, defs := "untraced", endToEnd
	if res.Traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(out, "\n%s seed=%d %s %.1fs: attempted=%d failed=%d fail_frac=%g\n",
		res.Workload, res.Seed, mode, res.Seconds, res.Attempted, res.Failed, res.Metrics["bench.fail_frac"].Value)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-34s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(out, " n=%d", m.Samples)
		}
		if m.Note != "" {
			fmt.Fprintf(out, " (%s)", m.Note)
		}
		fmt.Fprintln(out)
	}
	if res.SpanFile != "" {
		fmt.Fprintf(out, "  spans: %s\n", res.SpanFile)
	}
}
