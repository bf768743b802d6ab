GO ?= go

# Static analysis is pinned so every machine runs the same checks; the
# tier-1 target skips it gracefully where the binary is not installed.
STATICCHECK_VERSION ?= 2025.1
STATICCHECK := $(shell command -v staticcheck 2>/dev/null)

.PHONY: all fmt vet staticcheck build test race bench check tier1 telemetry-smoke fuzz-smoke chaos-restart chaos-policies obscheck surface

all: check

# Fail when any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Runs staticcheck@$(STATICCHECK_VERSION) when installed; skips (with a
# notice) otherwise, so tier-1 works on minimal containers without
# downloading toolchains.
staticcheck:
ifdef STATICCHECK
	$(STATICCHECK) -checks inherit ./...
else
	@echo "staticcheck not installed; skipping (pin: staticcheck@$(STATICCHECK_VERSION))"
endif

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full pre-commit gate.
check: fmt vet build test race

# Observability-taxonomy lint: every Ev*/Ctr*/Gauge* constant in
# internal/obs must be documented (by its wire value) in DESIGN.md's event
# and metric tables. New instrumentation without docs fails tier-1.
obscheck:
	$(GO) run ./scripts/obscheck

# Telemetry smoke: start mvserve with the admin plane on a loopback port,
# let it self-scrape /metrics, /healthz, and /traces (mvserve validates the
# exposition format itself), and check the scrape report. No curl needed,
# and the OS-assigned port avoids collisions in CI.
telemetry-smoke:
	@out="$$($(GO) run ./cmd/mvserve -catalog cmd/mvserve/testdata/catalog.json \
		-workload cmd/mvserve/testdata/workload.json \
		-clients 2 -requests 20 -epochs 1 -scale 0.005 \
		-telemetry 127.0.0.1:0)" || { echo "$$out"; exit 1; }; \
	for want in "telemetry: /metrics valid Prometheus exposition" \
		"telemetry: /healthz ok" "telemetry: /traces holds"; do \
		echo "$$out" | grep -q "$$want" || { \
			echo "telemetry smoke: missing \"$$want\""; echo "$$out"; exit 1; }; \
	done; \
	echo "telemetry smoke: ok"

# Short fuzzing pass over the batch executor's predicate kernels (one
# comparison, then nested And / Or / Not trees with an unbound column), the
# one join equality (every join operator matches a pair iff Value.Equal),
# the expression arena's identity (same structural / semantic ID ⇔ same
# StructuralKey / SemanticKey string), the
# delta journal's open path (any bytes after a valid prefix: no error, the
# prefix survives), its floats (any bits, NaN payloads, ±Inf and −0
# included, replay from the file exactly as from memory) and its strings
# (any bytes, invalid UTF-8 included, the same), the typed per-column statistics (the catalog entry of
# any column equals the boxed reference's, bit for bit), and the snapshot
# store's two on-disk decoders (any segment bytes: ErrSegmentCorrupt or a
# table that re-encodes to those bytes; any manifest: rejected, or extents
# in range, disjoint and summing to each entry's rows), and a join delta's
# leg that probes its operand (the same rows, as a multiset, and the same
# operator stats as the nested loop over the operand built whole), and the
# row check (any values into typed tables: refused whole, the table
# unchanged, or read back bit for bit). A few seconds
# per target is enough to shake loose encoding mismatches in CI; long
# sessions run the same targets with a bigger -fuzztime by hand.
fuzz-smoke:
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzBatchSelectPredicate -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzBatchSelectNested -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzJoinKeyEncoding -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzJournalLine -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzJournalFloatFidelity -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzJournalStringFidelity -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzRelationStats -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzReadTableSegment -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzDeltaLegProbe -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzInsertKinds -fuzztime 5s
	$(GO) test ./internal/snapshot -run '^$$' -fuzz FuzzManifest -fuzztime 5s
	$(GO) test ./internal/algebra -run '^$$' -fuzz FuzzExprIdentity -fuzztime 5s

# Chaos crash-restart-verify: kill a checkpoint at each injected crash
# point (mid-segment write, either side of the manifest rename, mid-journal
# compaction), restart over the debris, and require bit-identical query
# answers with zero lost deltas — under the race detector, since recovery
# races the snapshot timer. A journal-only server (no snapshots) restarts
# too, and must replay the batches its landed epochs held.
chaos-restart:
	$(GO) test -race -count=1 -run 'TestSnapshotCrashRestartVerify|TestFileJournalTruncateCrashLosesNothing|TestJournalOnlyRestartKeepsAckedDeltas' . ./internal/engine

# Mixed-policy chaos: the crash-restart-verify cycle with the full refresh
# policy spectrum live (manual, on-commit, scheduled, streaming), deltas
# arriving through both the direct and the CDC streaming path, plus the
# backpressure and drain-on-close contracts of the change feed — all under
# the race detector.
chaos-policies:
	$(GO) test -race -count=1 -run 'TestChaosMixedPolicyRecovery|TestPolicyTelemetryEndToEnd|TestStream' . ./internal/serve

# The tier-1 verification script (what CI runs on every change), with the
# race detector included so the concurrent serving layer stays honest,
# static analysis (vet always, staticcheck when installed) in front, a
# short fuzz pass over the batch executor, the chaos crash-restart and
# mixed-policy cycles, and a live telemetry scrape at the end.
tier1: build vet staticcheck obscheck test race fuzz-smoke chaos-restart chaos-policies telemetry-smoke

# Run the repo benchmark (BENCHMARK.json, bench/README.md): all four
# workloads; the result JSON goes to stdout and bench/out/.
bench:
	$(GO) run ./bench -seed 1

# The size of the thing (ROADMAP aim 2's reported metric): non-test Go
# lines, test lines, the lines of the root package's exported
# documentation, and the mutexes declared outside tests — the repository's
# and, on its own line, internal/serve's (the number ROADMAP item 7 counts
# down). No reformatting or comment stripping — plain wc.
surface:
	@echo "non-test Go lines: $$(find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines:     $$(find . -name '*_test.go' | xargs cat | wc -l)"
	@echo "go doc -all . :    $$($(GO) doc -all . | wc -l)"
	@echo "mutex declarations (non-test): $$(grep -rE 'sync\.(RW)?Mutex' --include='*.go' . | grep -v _test.go | wc -l)"
	@echo "  of them in internal/serve:   $$(grep -rE 'sync\.(RW)?Mutex' --include='*.go' internal/serve | grep -v _test.go | wc -l)"
