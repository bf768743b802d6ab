package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestQuickAllWorkloads is the -quick smoke mode: every workload with
// half-second windows, traced (which also runs an untraced fifth), with
// every correctness check live and no timing assertion. It keeps the
// benchmark compiling and its checks honest under `go test ./...`.
func TestQuickAllWorkloads(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := run(runConfig{
				workload: w.Name, seed: 1, window: 500 * time.Millisecond,
				traced: true, quick: true, outDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d checks failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			if res.Attempted < 1 {
				t.Fatal("nothing was attempted")
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.Name, m.Value, ok)
				}
			}
			data, err := os.ReadFile(res.SpanFile)
			if err != nil {
				t.Fatal(err)
			}
			var spans spanFile
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if len(spans.Spans) == 0 {
				t.Error("the traced run wrote no spans")
			}
			for _, s := range spans.Spans {
				if s.Name == "" || s.End < s.Start {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

// TestDriverLine checks the one-line form the driver parses, on the
// cheapest workload, untraced and traced.
func TestDriverLine(t *testing.T) {
	t.Parallel()
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		err := driverRun(&out, runConfig{
			workload: "design_star32", seed: 2, window: 300 * time.Millisecond,
			traced: traced, quick: true, outDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(line) != 4 {
			t.Errorf("the result has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("traced=%v printed %d metrics, want %d", traced, len(metrics), len(want))
		}
		for _, d := range want {
			m, ok := metrics[d.Name]
			if !ok || m["unit"] != d.Unit || len(m) != 2 {
				t.Errorf("metric %s printed as %v, want a value and unit %q", d.Name, m, d.Unit)
			}
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables in metrics.go
// and to the limits of the driver's contract.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []workloadDef
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if strings.Join(file.Command, " ") != "go run ./bench" || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("command %v over paths %v", file.Command, file.Paths)
	}
	runs := 4 + 22*len(file.Workloads)
	if file.RunSeconds < 1 || file.RunSeconds > 60 || runs*(file.RunSeconds+8) > 3420 {
		t.Errorf("run_seconds %d: %d runs with about 8 s of set-up and checks each do not fit 3420 s", file.RunSeconds, runs)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w != workloads[i] {
			t.Errorf("workload %d is %+v, want %+v", i, w, workloads[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, want %d", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d is %+v, want %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.Bound || w.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v, want %v (bounded %v)", kind, g.Name, g.Bound, w.Bound, bounded)
			}
			if len(g.Name) > 64 || len(g.Unit) > 16 {
				t.Errorf("%s metric %s: name or unit too long", kind, g.Name)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(data) > 64<<10 {
		t.Errorf("%d per-layer metrics in %d bytes exceed the contract", len(perLayer), len(data))
	}
	// setup_s has the largest bound, as the contract asks.
	for _, d := range endToEnd {
		if d.Name != "setup_s" && d.Bound > 0.25 {
			t.Errorf("%s is bounded more loosely than setup_s", d.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	env := currentEnvironment()
	write := func(name string, env environment, scale map[string]float64, jitter float64) string {
		rep := reportFile{Env: env, Seconds: 25}
		for _, w := range workloads {
			for seed := int64(1); seed <= 10; seed++ {
				r := &Result{Workload: w.Name, Seed: seed, Metrics: map[string]Metric{}}
				for _, d := range endToEnd {
					v := 100 * (1 + jitter*float64(seed-5)/5)
					if s, ok := scale[w.Name+"/"+d.Name]; ok {
						v *= s
					}
					r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
				}
				rep.Runs = append(rep.Runs, r)
			}
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", env, nil, 0.01)

	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", env, nil, 0.01)); err != nil {
		t.Errorf("identical reports: %v", err)
	}
	if n := strings.Count(out.String(), " ok"); n != len(workloads)*len(endToEnd) {
		t.Errorf("%d ok rows, want %d:\n%s", n, len(workloads)*len(endToEnd), out.String())
	}

	// Latency up 40 % on one workload is worse; throughput up 40 % is not.
	out.Reset()
	worse := write("worse.json", env, map[string]float64{"read_cold/op_ms_p50": 1.4, "read_hot/ops_per_s": 1.4}, 0.01)
	if err := compareFiles(&out, base, worse); err == nil {
		t.Error("a 40 % slower median was not reported as an error")
	}
	if n := strings.Count(out.String(), "worse"); n != 1 {
		t.Errorf("%d worse rows, want 1:\n%s", n, out.String())
	}
	// Throughput down 30 % is worse.
	if err := compareFiles(&bytes.Buffer{}, base, write("slow.json", env, map[string]float64{"read_hot/ops_per_s": 0.7}, 0.01)); err == nil {
		t.Error("30 % less throughput was not reported as an error")
	}

	// A side whose own spread exceeds the bound cannot resolve anything.
	out.Reset()
	if err := compareFiles(&out, base, write("noisy.json", env, map[string]float64{"read_cold/op_ms_p50": 1.4}, 0.4)); err != nil {
		t.Errorf("unresolved rows are not errors: %v", err)
	}
	if !strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "worse") {
		t.Errorf("want unresolved rows and no worse ones:\n%s", out.String())
	}

	other := env
	other.GOMAXPROCS++
	if err := compareFiles(&bytes.Buffer{}, base, write("other.json", other, nil, 0.01)); err == nil {
		t.Error("reports from different environments were compared")
	}
}
