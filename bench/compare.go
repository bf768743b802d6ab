package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*reportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep reportFile
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// values collects one end-to-end metric of one workload over a report's
// untraced runs.
func (rep *reportFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rep.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// spread is the interquartile range as a share of the median: the driver's
// measure of how well a metric repeats. It needs two values.
func spread(xs []float64) (float64, bool) {
	if len(xs) < 2 {
		return 0, false
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0, false
	}
	return (q3 - q1) / m, true
}

// verdict judges b against a for one metric: "worse" when b's median is
// worse than a's by more than the bound, "unresolved" when either side's
// own spread is wider than the bound (so the medians cannot tell), else
// "ok".
func verdict(def metricDef, a, b []float64) (change float64, status string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if def.Better == "higher" {
		worse = -change
	}
	for _, xs := range [][]float64{a, b} {
		if s, ok := spread(xs); ok && s > def.Bound {
			return change, "unresolved"
		}
	}
	if worse > def.Bound {
		return change, "worse"
	}
	return change, "ok"
}

// compareFiles prints one row per end-to-end metric × workload. It returns
// an error when the environments differ or when any row is worse.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if a.Env != b.Env {
		return fmt.Errorf("refusing to compare across environments:\n  %s: %+v\n  %s: %+v", pathA, a.Env, pathB, b.Env)
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare runs of %gs with runs of %gs", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(out, "%-14s %-13s %13s %8s %13s %8s %8s %6s  %s\n",
		"workload", "metric", "a median", "a iqr", "b median", "b iqr", "change", "bound", "status")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.Name, d.Name), b.values(w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change, status := verdict(d, va, vb)
			if status == "worse" {
				bad++
			}
			sa, _ := spread(va)
			sb, _ := spread(vb)
			fmt.Fprintf(out, "%-14s %-13s %13.6g %7.1f%% %13.6g %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, median(va), 100*sa, median(vb), 100*sb, 100*change, 100*d.Bound, status)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload rows are worse than their bound", bad)
	}
	return nil
}
