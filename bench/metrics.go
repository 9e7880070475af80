package main

import "fmt"

// metricDef names one reported metric. BENCHMARK.json at the repo root
// declares the same names, units, directions and bounds to the driver;
// TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline it may worsen by
}

// endToEnd are the metrics a user of the system sees. The driver takes
// every one from every workload; README.md says what each means where,
// and which two are stand-ins on a workload that has no such thing.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"entries_per_s", "1/s", "higher", 0.15},
	{"cpu_us_per_entry", "us", "lower", 0.15},
	{"allocs_per_entry", "count", "lower", 0.03},
	{"resident_bytes_per_cert", "B", "lower", 0.05},
	{"disk_bytes_per_cert", "B", "lower", 0.02},
	{"query_p50_ms", "ms", "lower", 0.15},
	{"query_capped_mean_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, grouped by
// the module whose boundary they are measured at. A metric that does
// not apply to a workload reads 0 there.
func perLayer(g *grid) []metricDef {
	d := []metricDef{
		// Substrate: feeds setup_s.
		{Name: "corpus.generate_s", Unit: "s", Better: "lower"},
		{Name: "corpus.certs_per_s", Unit: "1/s", Better: "higher"},
		{Name: "ctlog.log.build_s", Unit: "s", Better: "lower"},

		{Name: "ctlog.server.get-entries.busy_s", Unit: "s", Better: "lower"},
		{Name: "ctlog.server.get-entries.requests", Unit: "count", Better: "lower"},
		{Name: "ctlog.server.get-entries.bytes_out", Unit: "B", Better: "lower"},
		{Name: "ctlog.server.get-sth-consistency.busy_s", Unit: "s", Better: "lower"},
		{Name: "ctlog.server.get-sth-consistency.requests", Unit: "count", Better: "lower"},
		{Name: "ctlog.server.get-proof-by-hash.requests", Unit: "count", Better: "lower"},
		{Name: "ctlog.server.get-sth.requests", Unit: "count", Better: "lower"},

		{Name: "ctlog.client.roundtrip_s", Unit: "s", Better: "lower"},
		{Name: "ctlog.client.requests", Unit: "count", Better: "lower"},
		{Name: "ctlog.client.retries", Unit: "count", Better: "lower"},
		{Name: "ctlog.client.bytes_in", Unit: "B", Better: "lower"},
		{Name: "ctlog.client.wire_decode_s", Unit: "s", Better: "lower"},

		{Name: "monitor.sync.worker_s", Unit: "s", Better: "lower"},
		{Name: "monitor.sync.other_s", Unit: "s", Better: "lower"},
		{Name: "monitor.sync.fetched", Unit: "count", Better: "higher"},
		{Name: "monitor.sync.audited", Unit: "count", Better: "higher"},
		{Name: "monitor.sync.bisections", Unit: "count", Better: "lower"},
		{Name: "monitor.sync.checkpoint_errors", Unit: "count", Better: "lower"},
		{Name: "monitor.sync.proof_failures", Unit: "count", Better: "lower"},

		{Name: "fleet.unique", Unit: "count", Better: "higher"},
		{Name: "fleet.dups", Unit: "count", Better: "higher"},
		{Name: "fleet.consumer.busy_s", Unit: "s", Better: "lower"},
		{Name: "fleet.consumer.idle_s", Unit: "s", Better: "lower"},
		{Name: "fleet.consumer.busy_share", Unit: "ratio", Better: "lower"},
		{Name: "fleet.feed.put_stalls", Unit: "count", Better: "lower"},

		{Name: "x509cert.parse_s", Unit: "s", Better: "lower"},
		{Name: "x509cert.parse_us_per_cert", Unit: "us", Better: "lower"},
		{Name: "x509cert.parse_errors", Unit: "count", Better: "lower"},
		{Name: "lint.run_s", Unit: "s", Better: "lower"},
		{Name: "lint.us_per_cert", Unit: "us", Better: "lower"},
		{Name: "lint.noncompliant", Unit: "count", Better: "lower"},
		{Name: "lint.findings", Unit: "count", Better: "lower"},
		{Name: "monitor.models.index_s", Unit: "s", Better: "lower"},
		{Name: "monitor.models.us_per_cert", Unit: "us", Better: "lower"},

		// index, write side.
		{Name: "index.fromcert_s", Unit: "s", Better: "lower"},
		{Name: "index.put_s", Unit: "s", Better: "lower"},
		{Name: "index.put_us_per_cert", Unit: "us", Better: "lower"},
		{Name: "index.put_p99_us", Unit: "us", Better: "lower"},
		{Name: "index.put_max_ms", Unit: "ms", Better: "lower"},
		{Name: "index.flush_final_s", Unit: "s", Better: "lower"},
		{Name: "index.flushes", Unit: "count", Better: "lower"},
		{Name: "index.compactions", Unit: "count", Better: "lower"},
		{Name: "index.segments_final", Unit: "count", Better: "lower"},
		{Name: "index.postings", Unit: "count", Better: "higher"},
	}
	// index, read side: per class at the bench's HTTP client while the
	// crawl runs (serve-under-ingest only), then the sealed index and
	// the store without HTTP (every live workload).
	for _, c := range queryClasses {
		d = append(d,
			metricDef{Name: "index.http." + c + ".p50_us", Unit: "us", Better: "lower"},
			metricDef{Name: "index.http." + c + ".p99_us", Unit: "us", Better: "lower"})
	}
	d = append(d,
		metricDef{Name: "index.http.samples", Unit: "count", Better: "higher"},
		metricDef{Name: "index.http.hit_share", Unit: "ratio", Better: "higher"},
		metricDef{Name: "index.http.slow_share_5ms", Unit: "ratio", Better: "lower"},
		metricDef{Name: "index.http.late_max_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "index.http.sealed.p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "index.http.sealed.p99_us", Unit: "us", Better: "lower"},
		// The highest percentile with at least ten samples beyond it.
		metricDef{Name: "index.http.tail.percentile", Unit: "%", Better: "higher"},
		metricDef{Name: "index.http.tail.ms", Unit: "ms", Better: "lower"})
	for _, c := range queryClasses {
		d = append(d, metricDef{Name: "index.lookup." + c + "_us", Unit: "us", Better: "lower"})
	}
	d = append(d,
		metricDef{Name: "ingest.pacer.late_max_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "pipeline.lintders.pass_s_p50", Unit: "s", Better: "lower"})
	if spec, ok := g.workload("batch-lint"); ok {
		for _, w := range spec.ScalingWorkers {
			d = append(d, metricDef{Name: fmt.Sprintf("pipeline.lintders.certs_per_s.w%d", w), Unit: "1/s", Better: "higher"})
		}
	}
	return append(d,
		metricDef{Name: "pipeline.tables_s", Unit: "s", Better: "lower"},
		metricDef{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},
		metricDef{Name: "bench.trace.overhead_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "bench.trace.consumer_coverage", Unit: "ratio", Better: "higher"},
		metricDef{Name: "bench.trace.spans", Unit: "count", Better: "higher"},
		metricDef{Name: "bench.trace.spans_dropped", Unit: "count", Better: "lower"})
}
