GO ?= go

# Packages with concurrency-sensitive code (crawl/retry plus the fused
# measurement pipeline and the lock-free instrument registry); these
# run under the race detector in `make check`.
RACE_PKGS := ./internal/ctlog/... ./internal/monitor/... ./internal/faultinject/... \
	./internal/pipeline/... ./internal/corpus/... ./internal/lint/... \
	./internal/obs/... ./internal/serve/... ./internal/fleet/... \
	./internal/index/...

# Address the smoke-metrics crawl serves its /metrics endpoint on.
SMOKE_METRICS_ADDR ?= 127.0.0.1:19321

.PHONY: build vet test race fuzz check bench profile allocguard obs-lint smoke-metrics soak soak-fleet loc
build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Seconds of coverage-guided fuzzing per target in `make check`: the
# Merkle proof verifiers, the direct get-entries decoder against the
# encoding/json fallback, the asn1der Time and Int fast paths against
# their time.Parse and big.Int oracles, and the allocation-free Punycode
# encoder against the []rune one it replaced — enough to shake out
# regressions without stalling the suite. Raise for a dedicated fuzz
# session.
FUZZ_TIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzProofVerification' -fuzztime $(FUZZ_TIME) ./internal/ctlog
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntries$$' -fuzztime $(FUZZ_TIME) ./internal/ctlog
	$(GO) test -run '^$$' -fuzz '^FuzzValueTime$$' -fuzztime $(FUZZ_TIME) ./internal/asn1der
	$(GO) test -run '^$$' -fuzz '^FuzzValueInt$$' -fuzztime $(FUZZ_TIME) ./internal/asn1der
	$(GO) test -run '^$$' -fuzz '^FuzzAppendEncode$$' -fuzztime $(FUZZ_TIME) ./internal/punycode

check: build vet test race fuzz allocguard obs-lint smoke-metrics soak-fleet

# loc prints the non-test Go line count outside bench/, the size the
# roadmap tracks from round to round.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# bench runs the end-to-end benchmark harness that BENCHMARK.json
# names (see bench/README.md for its workloads and metrics).
bench:
	$(GO) run ./bench

# profile captures CPU + heap (alloc_space) pprof profiles from a live
# paper-scale ctscan run via the internal/obs pprof handler; artifacts
# land in profiles/ (see profiles/README.md).
profile:
	./scripts/profile.sh

# allocguard runs the budgeted benchmarks (corpus pipeline, index
# ingest, ctlog write path) and fails `make check` when a per-cert
# allocation or byte cost exceeds scripts/alloc_budgets.txt.
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
