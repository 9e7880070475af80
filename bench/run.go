package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// outcome is one run of one workload: the metrics it reports (the
// end-to-end set when untraced, the per-layer set when traced) and its
// correctness tally.
type outcome struct {
	checks
	metrics map[string]float64
	iters   int // crawls or passes inside the measured window
}

// runParams are the knobs of one run; everything else is the grid.
type runParams struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string // scratch and trace files live under here
}

// runWorkload builds the workload's inputs from the seed, measures for
// about p.seconds, validates every output, and reports.
func runWorkload(ctx context.Context, g *grid, spec workloadSpec, p runParams) (*outcome, error) {
	if spec.live() {
		return runLive(ctx, g, spec, p)
	}
	return runBatch(ctx, g, spec, p)
}

// peakSampler polls the runtime for the traced run's peak heap and
// goroutine count.
type peakSampler struct {
	stop             chan struct{}
	once             sync.Once
	wg               sync.WaitGroup
	heap, goroutines float64
}

func startPeakSampler() *peakSampler {
	s := &peakSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if h := readMetric(metricHeapLive); h > s.heap {
				s.heap = h
			}
			if n := readMetric(metricGoroutines); n > s.goroutines {
				s.goroutines = n
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler; after it returns the peaks are safe to
// read. Nil-safe and repeatable, so it can be deferred and also called
// early.
func (s *peakSampler) finish() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// crawlNumbers are the crawls' per-unit costs, one sample per crawl.
type crawlNumbers struct {
	eps, cpuUS, allocs, resident, disk []float64
	wallTraced, wallUntraced           []float64
}

// ran takes the costs of a crawl's timed region.
func (n *crawlNumbers) ran(c *crawl) {
	fetched := float64(c.fetched)
	n.eps = append(n.eps, fetched/c.wallS)
	n.cpuUS = append(n.cpuUS, c.cpuS*1e6/fetched)
	n.allocs = append(n.allocs, c.allocs/fetched)
	if c.o.rec != nil {
		n.wallTraced = append(n.wallTraced, c.wallS)
	} else {
		n.wallUntraced = append(n.wallUntraced, c.wallS)
	}
}

// closed closes a finished crawl and takes the two costs that are only
// final once its compactor is idle.
func (n *crawlNumbers) closed(c *crawl) error {
	disk, resident, err := c.close()
	certs := float64(c.in.nCerts)
	n.disk = append(n.disk, float64(disk)/certs)
	n.resident = append(n.resident, resident/certs)
	return err
}

func runLive(ctx context.Context, g *grid, spec workloadSpec, p runParams) (*outcome, error) {
	t0 := time.Now()
	in, err := buildLiveInputs(p.seed, spec.Certs, g.Logs)
	if err != nil {
		return nil, err
	}
	defer in.close()
	setupS := time.Since(t0).Seconds()

	// Outside set-up and outside every timed region: the reference
	// verdicts and the query list. Queries race a paced crawl, for up to
	// four windows should it fall behind; a traced run also asks the
	// sealed index afterwards.
	ref := referenceNoncompliant(in.certs)
	q := g.Query
	ingestN, tailN := 0, 0
	if spec.Paced {
		ingestN = int(q.RatePerS * 4 * p.seconds)
	}
	if p.traced {
		tailN = int(q.RatePerS * q.TailSeconds)
	}
	queries := buildQueries(p.seed+1, ingestN+tailN, in.certs, q)
	probes := buildProbes(p.seed+2, in.certs)
	// Everything derived from the generator's parsed certificates now
	// exists, and the logs hold their own copies of the DER: let the
	// corpus go. A monitor in the field does not carry its logs' source
	// material, and the collector should not be marking it during the
	// timed region.
	in.certs = nil
	qclient := &http.Client{Transport: &http.Transport{}}
	defer qclient.CloseIdleConnections()

	out := &outcome{metrics: map[string]float64{}}
	var (
		nums   crawlNumbers
		last   *crawl        // the final crawl, kept open for the query tail
		ingest *querySamples // serve-under-ingest: the generator's ingest phase
		peaks  *peakSampler
	)
	if p.traced {
		peaks = startPeakSampler()
		defer peaks.finish()
	}

	start := time.Now()
	for iter := 0; ; iter++ {
		// A traced run alternates untraced and traced crawls so the
		// tracing overhead is measured inside one process; a paced
		// crawl's wall is set by its schedule, so it is simply traced.
		traceThis := p.traced && (spec.Paced || iter%2 == 1)
		o := crawlOpts{audit: spec.Audit, batch: g.Batch, dir: filepath.Join(p.outDir, fmt.Sprintf("crawl-%d", iter))}
		if spec.Paced {
			o.paceSeconds = p.seconds
		}
		if traceThis {
			o.rec = newRecorder(3*in.nCerts + 8*in.fetchable()/g.Batch + 1024)
		}
		c, err := in.newCrawl(o)
		if err != nil {
			return nil, err
		}
		if spec.Paced {
			// The generator: one goroutine beside the system's own,
			// stopped when the crawl's timed region ends.
			stopQ, qdone := make(chan struct{}), make(chan *querySamples, 1)
			go func() { qdone <- runQueries(qclient, c.qs.base, queries[:ingestN], q.RatePerS, stopQ) }()
			err = c.run(ctx)
			close(stopQ)
			ingest = <-qdone
		} else {
			err = c.run(ctx)
		}
		if err != nil {
			c.close()
			return nil, err
		}
		out.iters++
		c.validate(&out.checks, probes, ref)
		nums.ran(c)

		// Stop once the window is spent (a paced crawl IS the window); a
		// traced run ends on a traced crawl, which always has the
		// untraced one before it to be compared with.
		spent := spec.Paced || time.Since(start).Seconds() >= p.seconds
		if p.traced {
			spent = spent && traceThis
		}
		if spent {
			last = c
			break
		}
		if err := nums.closed(c); err != nil {
			return nil, err
		}
	}

	// A traced run goes on to the sealed index: the same open-loop
	// stream against the final crawl's quiescent store, then the store
	// without HTTP.
	var (
		tail     *querySamples
		lookupUS []float64
	)
	if p.traced {
		// Collect the crawl's garbage first, so no GC cycle of the
		// harness's own large heap lands inside the quiet phase.
		runtime.GC()
		sealed := queries[ingestN:]
		tail = runQueries(qclient, last.qs.base, sealed, q.RatePerS, nil)
		if lookupUS, err = directLookupUS(last.lsm, sealed); err != nil {
			last.close()
			return nil, err
		}
	}
	for _, s := range []*querySamples{ingest, tail} {
		if s != nil {
			out.attempted += int64(s.sent)
			out.failed += int64(s.failed)
			out.notes = append(out.notes, s.failures...)
		}
	}
	if err := nums.closed(last); err != nil {
		return nil, err
	}

	m := out.metrics
	if !p.traced {
		m["setup_s"] = setupS
		m["entries_per_s"] = median(nums.eps)
		m["cpu_us_per_entry"] = median(nums.cpuUS)
		m["allocs_per_entry"] = median(nums.allocs)
		m["resident_bytes_per_cert"] = median(nums.resident)
		m["disk_bytes_per_cert"] = median(nums.disk)
		if ingest != nil {
			m["query_p50_ms"] = median(ingest.all)
			m["query_capped_mean_ms"] = cappedMean(ingest.all, stallCapMS)
		} else {
			noQueryStream(m)
		}
		return out, nil
	}

	peaks.finish()
	m["runtime.heap_peak_mb"] = peaks.heap / (1 << 20)
	m["runtime.goroutines_peak"] = peaks.goroutines
	m["corpus.generate_s"] = in.generateS
	m["corpus.certs_per_s"] = float64(in.nCerts) / in.generateS
	m["ctlog.log.build_s"] = in.logBuildS
	if !spec.Paced {
		// Best against best: the box's noise only ever slows a crawl.
		// The untraced side includes the process's first, cold crawl, so
		// on a window of two crawls this reads low.
		traced, _ := minMax(nums.wallTraced)
		untraced, _ := minMax(nums.wallUntraced)
		m["bench.trace.overhead_share"] = traced/untraced - 1
	}
	last.layerTable(m)
	if ingest != nil {
		for c, name := range queryClasses {
			s := sortedCopy(ingest.byClass[c])
			m["index.http."+name+".p50_us"] = percentile(s, 50) * 1e3
			m["index.http."+name+".p99_us"] = percentile(s, 99) * 1e3
		}
		sorted := sortedCopy(ingest.all)
		m["index.http.samples"] = float64(len(sorted))
		m["index.http.hit_share"] = float64(ingest.hits) / float64(max(ingest.sent, 1))
		m["index.http.slow_share_5ms"] = ingest.slowShare(5)
		m["index.http.late_max_ms"] = float64(ingest.maxLate.Nanoseconds()) / 1e6
		m["index.http.tail.percentile"], m["index.http.tail.ms"] = highestPercentile(sorted, 10)
		m["ingest.pacer.late_max_ms"] = float64(last.pacerLateness().Nanoseconds()) / 1e6
	}
	sealed := sortedCopy(tail.all)
	m["index.http.sealed.p50_us"] = percentile(sealed, 50) * 1e3
	m["index.http.sealed.p99_us"] = percentile(sealed, 99) * 1e3
	for c, name := range queryClasses {
		m["index.lookup."+name+"_us"] = lookupUS[c]
	}

	if err := last.o.rec.writeJSONL(filepath.Join(p.outDir, "spans-"+spec.Name+".jsonl")); err != nil {
		return nil, err
	}
	return out, writeLayerTable(filepath.Join(p.outDir, "layers-"+spec.Name+".json"), m)
}

// noQueryStream fills the two query metrics on a workload that sends no
// queries. The driver takes every end-to-end metric from every
// workload and none may read 0, so both report the milliseconds one
// entry takes, 1000 ÷ entries_per_s: a number the run already has, and
// one that gates nothing entries_per_s does not.
func noQueryStream(m map[string]float64) {
	m["query_p50_ms"] = 1e3 / m["entries_per_s"]
	m["query_capped_mean_ms"] = m["query_p50_ms"]
}

// layerTable fills in the per-layer rows one traced crawl measured. It
// runs after close, so the index's own counts are final.
func (c *crawl) layerTable(m map[string]float64) {
	rec, tr, ix := c.o.rec, c.cons.tr, c.lsm.Stats()
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	certs := float64(max(c.res.UniqueEntries, 1))

	serverBusy := 0.0
	for name, st := range rec.server {
		serverBusy += sec(st.busyNS.Load())
		m["ctlog.server."+name+".requests"] = float64(st.requests.Load())
	}
	m["ctlog.server.get-entries.busy_s"] = sec(rec.server["get-entries"].busyNS.Load())
	m["ctlog.server.get-entries.bytes_out"] = float64(rec.server["get-entries"].bytes.Load())
	m["ctlog.server.get-sth-consistency.busy_s"] = sec(rec.server["get-sth-consistency"].busyNS.Load())

	roundtrip := sec(rec.client.busyNS.Load())
	m["ctlog.client.roundtrip_s"] = roundtrip
	m["ctlog.client.requests"] = float64(rec.client.requests.Load())
	m["ctlog.client.bytes_in"] = float64(rec.client.bytes.Load())
	m["ctlog.client.wire_decode_s"] = roundtrip - serverBusy
	for _, sp := range c.specs {
		m["ctlog.client.retries"] += float64(sp.Client.Retries())
	}

	for _, rep := range c.res.Logs {
		st := rep.Stats
		m["monitor.sync.worker_s"] += st.Duration.Seconds()
		m["monitor.sync.fetched"] += float64(st.Fetched)
		m["monitor.sync.audited"] += float64(st.Audited)
		m["monitor.sync.bisections"] += float64(st.Bisections)
		m["monitor.sync.checkpoint_errors"] += float64(st.CheckpointErrors)
		m["monitor.sync.proof_failures"] += float64(st.ProofFailures)
	}
	// What a crawl worker does while not blocked on a round trip: proof
	// verification, leaf hashing, dedup, waiting on a full feed,
	// checkpoint and STH saves (and, when paced, waiting for its slot).
	m["monitor.sync.other_s"] = m["monitor.sync.worker_s"] - roundtrip

	busy := sec(tr.parseNS + tr.lintNS + tr.modelsNS + tr.fromCertNS + tr.putNS)
	m["fleet.unique"] = float64(c.res.UniqueEntries)
	m["fleet.dups"] = float64(c.res.DupEntries)
	m["fleet.consumer.busy_s"] = busy
	m["fleet.consumer.idle_s"] = sec(tr.idleNS)
	m["fleet.consumer.busy_share"] = busy / c.runS
	m["fleet.feed.put_stalls"], _ = c.reg.Sample("fleet_feed_put_stalls_total")
	m["bench.trace.consumer_coverage"] = coverage(
		[]float64{sec(tr.parseNS), sec(tr.lintNS), sec(tr.modelsNS), sec(tr.fromCertNS), sec(tr.putNS)},
		sec(tr.idleNS), c.runS)

	m["x509cert.parse_s"] = sec(tr.parseNS)
	m["x509cert.parse_us_per_cert"] = sec(tr.parseNS) * 1e6 / certs
	m["x509cert.parse_errors"] = float64(c.cons.parseErrors)
	m["lint.run_s"] = sec(tr.lintNS)
	m["lint.us_per_cert"] = sec(tr.lintNS) * 1e6 / certs
	m["lint.noncompliant"] = float64(c.cons.noncompliant)
	m["lint.findings"] = float64(c.cons.findings)
	m["monitor.models.index_s"] = sec(tr.modelsNS)
	m["monitor.models.us_per_cert"] = sec(tr.modelsNS) * 1e6 / certs

	puts := sortedCopy(tr.putUS)
	m["index.fromcert_s"] = sec(tr.fromCertNS)
	m["index.put_s"] = sec(tr.putNS)
	m["index.put_us_per_cert"] = sec(tr.putNS) * 1e6 / certs
	m["index.put_p99_us"] = percentile(puts, 99)
	if len(puts) > 0 {
		m["index.put_max_ms"] = puts[len(puts)-1] / 1e3
	}
	m["index.flush_final_s"] = c.flushS
	m["index.flushes"] = float64(ix.Flushes)
	m["index.compactions"] = float64(ix.Compactions)
	m["index.segments_final"] = float64(ix.Segments)
	m["index.postings"] = float64(ix.Postings)

	m["runtime.gc_cpu_share"] = c.gcCPUShare
	m["runtime.gc_cycles"] = c.gcCycles
	m["bench.trace.spans"] = float64(len(rec.recorded()))
	m["bench.trace.spans_dropped"] = float64(rec.dropped.Load())
}

func writeLayerTable(file string, m map[string]float64) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(buf, '\n'), 0o644)
}

func runBatch(ctx context.Context, g *grid, spec workloadSpec, p runParams) (*outcome, error) {
	t0 := time.Now()
	in, err := buildBatchInputs(p.seed, spec.Certs)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(t0).Seconds()
	ref := in.reference()
	certs := len(in.ders)
	out := &outcome{metrics: map[string]float64{}}

	// One warm-up pass fills the pools and the intern tables.
	if _, _, _, err := in.pass(ctx, spec.Workers); err != nil {
		return nil, err
	}
	var (
		walls, tables, cpuUS, allocs []float64 // one sample per pass
		keep                         *batchTables
		peaks                        *peakSampler
	)
	if p.traced {
		peaks = startPeakSampler()
		defer peaks.finish()
	}
	heap0 := liveHeap()
	u := readUsage()
	for len(walls) < 3 || time.Since(u.wall).Seconds() < p.seconds {
		pu := readUsage()
		t, wallS, tablesS, err := in.pass(ctx, spec.Workers)
		if err != nil {
			return nil, err
		}
		pass := pu.since()
		t.check(&out.checks, ref, certs)
		walls, tables, keep = append(walls, wallS), append(tables, tablesS), t
		cpuUS = append(cpuUS, pass.cpuS*1e6/float64(certs))
		allocs = append(allocs, pass.allocs/float64(certs))
	}
	cost := u.since() // the window's GC rows
	// What the researcher still holds once a pass is done: one linted
	// measurement and its tables.
	resident := liveHeap() - heap0
	peaks.finish()
	out.iters = len(walls)

	m := out.metrics
	if !p.traced {
		m["setup_s"] = setupS
		m["entries_per_s"] = float64(certs) / median(walls)
		m["cpu_us_per_entry"] = median(cpuUS)
		m["allocs_per_entry"] = median(allocs)
		m["resident_bytes_per_cert"] = resident / float64(certs)
		// Nothing is written here; what is on the researcher's disk is
		// the DER dataset itself.
		m["disk_bytes_per_cert"] = float64(in.derBytes) / float64(certs)
		noQueryStream(m)
		return out, nil
	}

	// The parse / lint split LintDERs does not expose: one
	// single-goroutine sweep with a clock read between the two.
	parseS, lintS, parseErrors := in.perCert()
	out.attempted += int64(certs)
	out.fail(parseErrors, "batch-lint: %d parse errors", parseErrors)

	m["corpus.generate_s"] = in.generateS
	m["corpus.certs_per_s"] = float64(certs) / in.generateS
	m["x509cert.parse_s"] = parseS
	m["x509cert.parse_us_per_cert"] = parseS * 1e6 / float64(certs)
	m["x509cert.parse_errors"] = float64(parseErrors)
	m["lint.run_s"] = lintS
	m["lint.us_per_cert"] = lintS * 1e6 / float64(certs)
	m["lint.noncompliant"] = float64(keep.noncompliant)
	m["lint.findings"] = float64(keep.findings)
	m["pipeline.lintders.pass_s_p50"] = median(walls)
	m["pipeline.tables_s"] = median(tables)
	// The worker-scaling curve: one pass per worker count. On one core
	// it would only measure the scheduler, so it is left at 0 there.
	if runtime.NumCPU() >= 2 {
		for _, w := range spec.ScalingWorkers {
			t, wallS, tablesS, err := in.pass(ctx, w)
			if err != nil {
				return nil, err
			}
			t.check(&out.checks, ref, certs)
			m[fmt.Sprintf("pipeline.lintders.certs_per_s.w%d", w)] = float64(certs) / (wallS - tablesS)
		}
	}
	m["runtime.gc_cpu_share"] = cost.gcCPUShare
	m["runtime.gc_cycles"] = cost.gcCycles
	m["runtime.heap_peak_mb"] = peaks.heap / (1 << 20)
	m["runtime.goroutines_peak"] = peaks.goroutines
	return out, writeLayerTable(filepath.Join(p.outDir, "layers-"+spec.Name+".json"), m)
}
