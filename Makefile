GO ?= go

# Packages with concurrency-sensitive code (crawl/retry plus the fused
# measurement pipeline and the lock-free instrument registry); these
# run under the race detector in `make check`.
RACE_PKGS := ./internal/ctlog/... ./internal/monitor/... ./internal/faultinject/... \
	./internal/pipeline/... ./internal/corpus/... ./internal/lint/... \
	./internal/obs/... ./internal/serve/... ./internal/fleet/... \
	./internal/index/...

# End-to-end corpus size for `make bench` (34800 ≈ 1:1000 of the
# paper's dataset). Lower it for quick local runs:
#   make bench BENCH_E2E_SIZE=3480
BENCH_E2E_SIZE ?= 34800
# Free-form note recorded in BENCH_7.json (hardware caveats etc.).
BENCH_NOTE ?=
# Interleaved bench rounds: the whole suite runs BENCH_ROUNDS times
# (round-robin, not back-to-back -count repeats) so benchjson's medians
# and min/max spread reflect cross-round noise, not warm-cache luck.
BENCH_ROUNDS ?= 3

# Address the smoke-metrics crawl serves its /metrics endpoint on.
SMOKE_METRICS_ADDR ?= 127.0.0.1:19321

.PHONY: build vet test race fuzz check bench profile allocguard obs-lint smoke-metrics soak soak-fleet
build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Seconds of coverage-guided fuzzing against the Merkle proof
# verifiers in `make check` — enough to shake out fold regressions
# without stalling the suite. Raise for a dedicated fuzz session.
FUZZ_TIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzProofVerification' -fuzztime $(FUZZ_TIME) ./internal/ctlog

check: build vet test race fuzz allocguard obs-lint smoke-metrics soak-fleet

# bench runs the end-to-end pipeline benchmarks (1 iteration each at
# paper scale), the streaming slot-recycling variant, the per-stage
# generate/lint benchmarks, the registry allocation guard, the
# fleet-crawl throughput benchmark, the certificate-index T1–T5
# query grid (point / prefix / range / ingest / mixed, LSM vs B+tree),
# the ctlog T6 write grid (baseline parse+SCT / pre-parsed SCT /
# Merkle-batched seal) and the ctlog proof-path scaling grid
# (Root / InclusionProof / ConsistencyProof at 2¹⁰, 2¹⁴, 2¹⁷ leaves,
# amortized Append) — BENCH_ROUNDS interleaved times — then records
# medians, min/max spread, derived per-cert allocation costs, the obs
# histogram snapshots, and a delta table against the previous
# BENCH_*.json in BENCH_7.json.
bench:
	{ for r in $$(seq 1 $(BENCH_ROUNDS)); do \
	    BENCH_E2E_SIZE=$(BENCH_E2E_SIZE) $(GO) test -run '^$$' \
		-bench 'MeasureCorpusE2E|MeasureCorpusStreamE2E|PipelineGenerateOnly|PipelineLintOnly' \
		-benchtime 1x -benchmem . ; \
	    $(GO) test -run '^$$' -bench 'RegistryRun' -benchmem ./internal/lint ; \
	    $(GO) test -run '^$$' -bench 'FleetCrawl' -benchtime 5x ./internal/fleet ; \
	    $(GO) test -run '^$$' -bench 'Index(Point|Prefix|Range|Ingest|Mixed)' \
		-benchmem ./internal/index ; \
	    $(GO) test -run '^$$' -bench 'Write(Baseline|PerEntry|Batched)|TreeProofs' \
		-benchmem ./internal/ctlog ; \
	  done ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_7.json -note "$(BENCH_NOTE)"

# profile captures CPU + heap (alloc_space) pprof profiles from a live
# paper-scale ctscan run via the internal/obs pprof handler; artifacts
# land in profiles/ (see profiles/README.md).
profile:
	./scripts/profile.sh

# allocguard enforces the per-cert allocation budgets in
# scripts/alloc_budgets.txt against the committed BENCH_7.json — a
# fast read-only check that fails `make check` when a recorded budget
# regresses.
allocguard:
	./scripts/allocguard.sh

# obs-lint fails when the metric families registered in code and the
# metrics reference table in DESIGN.md drift apart — in either
# direction (undocumented metric, or stale doc row).
obs-lint:
	./scripts/obs_lint.sh

# smoke-metrics boots a faulted ctmonitor crawl with a live metrics
# endpoint, scrapes /metrics, and asserts the crawl and client
# instruments are present with non-zero values.
smoke-metrics:
	@$(GO) build -o /tmp/ctmonitor-smoke ./cmd/ctmonitor
	@rm -f /tmp/ctmonitor-smoke.metrics; \
	/tmp/ctmonitor-smoke -entries 120 -fault-rate 0.25 -batch 16 \
		-metrics-addr $(SMOKE_METRICS_ADDR) -linger 30s \
		>/dev/null 2>/tmp/ctmonitor-smoke.log & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=0; \
	for i in $$(seq 1 100); do \
		if curl -sf http://$(SMOKE_METRICS_ADDR)/metrics -o /tmp/ctmonitor-smoke.metrics 2>/dev/null \
			&& grep -q '^monitor_entries_synced_total [1-9]' /tmp/ctmonitor-smoke.metrics; then \
			ok=1; break; \
		fi; \
		sleep 0.2; \
	done; \
	[ $$ok -eq 1 ] || { echo "smoke-metrics: FAIL: no scrape with synced entries (see /tmp/ctmonitor-smoke.log)"; exit 1; }; \
	for pat in 'ctlog_requests_total{outcome="retryable"} [1-9]' \
		'ctlog_requests_total{outcome="ok"} [1-9]' \
		'ctlog_request_seconds_bucket' \
		'ctlog_server_requests_total' \
		'monitor_checkpoint_age_seconds'; do \
		grep -q "$$pat" /tmp/ctmonitor-smoke.metrics || { \
			echo "smoke-metrics: FAIL: missing $$pat"; exit 1; }; \
	done; \
	echo "smoke-metrics: OK ($$(wc -l < /tmp/ctmonitor-smoke.metrics) exposition lines)"

# soak drives the crash/recovery scenario end to end: a rate-limited,
# fault-injected (hang/reset/5xx) crawl is SIGTERMed mid-flight, then
# restarted off the same checkpoint file; soakcheck asserts the resumed
# crawl completes with exact entry accounting, that the overloaded log
# shed requests, and that the client breaker opened and re-closed.
soak:
	./scripts/soak.sh

# soak-fleet drives the multi-log crash/recovery scenario: four logs
# with disjoint fault profiles (hang, 25% 5xx, poisoned entries,
# clean) crawled by the fleet coordinator, SIGTERMed mid-flight, then
# restarted; soakcheck -fleet asserts per-log checkpoint resume with
# zero refetch, exact cross-log dedup accounting, poisoned-entry
# quarantine without stalling the healthy logs, and a fleet that
# degraded without dying.
soak-fleet:
	./scripts/soak_fleet.sh
