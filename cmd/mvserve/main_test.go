package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes run() with fresh flag state and the given arguments,
// capturing stdout.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	oldStdout := os.Stdout
	defer func() {
		os.Args, flag.CommandLine = oldArgs, oldFlags
		os.Stdout = oldStdout
	}()
	flag.CommandLine = flag.NewFlagSet("mvserve", flag.ContinueOnError)
	os.Args = append([]string{"mvserve"}, args...)

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := run()
	w.Close()
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), code
}

func TestCLIMissingFlags(t *testing.T) {
	_, code := runCLI(t)
	if code == 0 {
		t.Error("missing flags accepted")
	}
}

func TestCLIUnknownModel(t *testing.T) {
	_, code := runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json", "-model", "quantum")
	if code == 0 {
		t.Error("unknown model accepted")
	}
}

func TestCLIUnknownDriftQuery(t *testing.T) {
	_, code := runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json",
		"-clients", "1", "-requests", "2", "-drift", "Q99")
	if code == 0 {
		t.Error("unknown drift query accepted")
	}
}

func TestCLIServeReport(t *testing.T) {
	out, code := runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json",
		"-clients", "2", "-requests", "20", "-epochs", "2", "-scale", "0.005")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	for _, want := range []string{
		"serving report:", "queries served:", "cache hit rate:",
		"latency p50/p95/p99", "refresh epochs:", "view staleness:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLITelemetry(t *testing.T) {
	out, code := runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json",
		"-clients", "2", "-requests", "20", "-epochs", "1", "-scale", "0.005",
		"-telemetry", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	for _, want := range []string{
		"telemetry: listening on 127.0.0.1:",
		"telemetry: /metrics valid Prometheus exposition",
		"telemetry: /healthz ok",
		"telemetry: /traces holds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLICostReportAndExplain(t *testing.T) {
	out, code := runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json",
		"-clients", "2", "-requests", "20", "-epochs", "2", "-scale", "0.005",
		"-telemetry", "127.0.0.1:0", "-explain", "Q1")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	for _, want := range []string{
		"cost accountability (predicted vs actual block I/O):",
		"recompute", "samples",
		"query Q1", "predicted",
		"telemetry: /costmodel holds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLICostSkewTripsDrift(t *testing.T) {
	out, code := runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json",
		"-clients", "1", "-requests", "4", "-epochs", "4", "-scale", "0.005",
		"-cost-skew", "16")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	if !strings.Contains(out, "DRIFTED") {
		t.Errorf("16x cost skew never flagged drift:\n%s", out)
	}
}

func TestCLICostAuditDisabled(t *testing.T) {
	out, code := runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json",
		"-clients", "1", "-requests", "4", "-epochs", "1", "-scale", "0.005",
		"-no-cost-audit")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	if strings.Contains(out, "cost accountability") {
		t.Errorf("-no-cost-audit still printed the ledger:\n%s", out)
	}
}

func TestCLIChaosReport(t *testing.T) {
	out, code := runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json",
		"-clients", "2", "-requests", "20", "-epochs", "3", "-scale", "0.005",
		"-chaos", "0.5")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	for _, want := range []string{
		"chaos: injecting faults", "fault tolerance:", "retries / refresh failures:",
		"breaker trips / degraded:", "view health:", "breaker",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIJournalReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.journal")
	// -chaos 1 makes every delta application fail persistently, so the
	// first run ends with journaled batches that never landed (a simulated
	// crash with un-applied work).
	out, code := runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json",
		"-clients", "1", "-requests", "5", "-epochs", "2", "-scale", "0.005",
		"-chaos", "1", "-journal", path)
	if code != 0 {
		t.Fatalf("first run exit code %d:\n%s", code, out)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal not created: %v", err)
	}
	out, code = runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json",
		"-clients", "1", "-requests", "5", "-epochs", "1", "-scale", "0.005",
		"-journal", path)
	if code != 0 {
		t.Fatalf("second run exit code %d:\n%s", code, out)
	}
	if !strings.Contains(out, "journal: replayed") {
		t.Errorf("second run did not replay the journal:\n%s", out)
	}
}

func TestCLIDriftAndApply(t *testing.T) {
	out, code := runCLI(t, "-catalog", "testdata/catalog.json", "-workload", "testdata/workload.json",
		"-clients", "2", "-requests", "50", "-epochs", "1", "-scale", "0.005",
		"-drift", "Q4", "-apply")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	for _, want := range []string{"drift: load shifts entirely to Q4", "observed frequencies", "advisor:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
