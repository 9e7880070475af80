// Package pipeline is the parallel streaming measurement pipeline for
// the RQ1 hot path: generate → build/parse → lint → aggregate over the
// synthetic CT corpus. Generation and linting are fused into one worker
// stage — each worker takes a slot index off a bounded queue, derives
// the slot's certificates from its (seed, index) RNG stream (the
// build/parse step rides inside corpus.Generator.GenerateSlot), lints
// them in place, and writes the result into its pre-assigned output
// cell. Fusing the stages keeps a certificate on one core from DER
// build through lint findings, so no cross-stage channel ever carries
// parsed-certificate payloads.
//
// Determinism: because every slot's bytes depend only on (cfg.Seed,
// slot index) and collection is by slot index, the output is
// byte-identical for any worker count, including the sequential
// corpus.Generate path.
//
// Observability: per-stage progress lives in internal/obs instruments
// (pipeline_generated_total, pipeline_linted_total, pipeline_in_flight,
// per-slot generate/lint latency histograms), registered on Config.Obs
// so a -metrics-addr scrape sees a running measurement live. Stats
// snapshots are derived from the same instruments. The accounting
// budget is at most one atomic add per certificate — counters are
// bumped once per slot, not per certificate.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/x509cert"
)

// Config sizes the pipeline.
type Config struct {
	// Workers is the number of fused generate→lint workers; 0 or
	// negative means runtime.NumCPU().
	Workers int
	// Obs receives the pipeline instruments. Nil means a private
	// throwaway registry: Stats still works, nothing is exposed.
	Obs *obs.Registry
	// Journal, when non-nil, receives a pipeline.quarantine event for
	// every generate/lint panic contained to one item.
	Journal *obs.Journal
	// Flight, when non-nil, records quarantines into the "pipeline"
	// flight ring and triggers a dump per quarantine burst.
	Flight *obs.Flight
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// metrics holds the run's obs instrument handles, resolved once so the
// worker loop pays only atomic ops. Counters are registry-lifetime
// (scrapes see totals across runs); the gen0/lint0 baselines make
// Stats run-relative.
type metrics struct {
	generated   *obs.Counter   // pipeline_generated_total
	linted      *obs.Counter   // pipeline_linted_total
	quarantined *obs.Counter   // pipeline_quarantined_total
	inFlight    *obs.Gauge     // pipeline_in_flight
	certsPerSec *obs.Gauge     // pipeline_certs_per_sec
	genSeconds  *obs.Histogram // pipeline_slot_generate_seconds
	lintSeconds *obs.Histogram // pipeline_slot_lint_seconds

	journal *obs.Journal
	flight  *obs.Flight
	ring    *obs.FlightRing

	gen0, lint0, quar0 uint64
	start              time.Time
}

func newMetrics(pc Config) *metrics {
	reg := pc.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.Help("pipeline_generated_total", "Certificates built and parsed (incl. precerts/variants).")
	reg.Help("pipeline_linted_total", "Certificates linted.")
	reg.Help("pipeline_quarantined_total", "Generate/lint panics contained to one item instead of killing the run.")
	reg.Help("pipeline_in_flight", "Slots currently inside a worker.")
	reg.Help("pipeline_certs_per_sec", "Linted certificates per second of wall clock, this run.")
	reg.Help("pipeline_slot_generate_seconds", "Per-slot generate (build+sign+parse) latency.")
	reg.Help("pipeline_slot_lint_seconds", "Per-slot lint latency.")
	m := &metrics{
		generated:   reg.Counter("pipeline_generated_total"),
		linted:      reg.Counter("pipeline_linted_total"),
		quarantined: reg.Counter("pipeline_quarantined_total"),
		inFlight:    reg.Gauge("pipeline_in_flight"),
		certsPerSec: reg.Gauge("pipeline_certs_per_sec"),
		genSeconds:  reg.Histogram("pipeline_slot_generate_seconds", nil),
		lintSeconds: reg.Histogram("pipeline_slot_lint_seconds", nil),
		journal:     pc.Journal,
		flight:      pc.Flight,
		ring:        pc.Flight.Ring("pipeline"),
		start:       time.Now(),
	}
	m.gen0 = m.generated.Value()
	m.lint0 = m.linted.Value()
	m.quar0 = m.quarantined.Value()
	return m
}

// quarantine accounts one contained generate/lint panic: counter,
// journal event, flight-ring record, and a (throttled) flight dump —
// the quarantined artifact is the forensic payload the ISSUE's threat
// model cares about.
func (m *metrics) quarantine(slot, index int, stage string) {
	m.quarantined.Inc()
	m.ring.Record("quarantine", stage, int64(slot), int64(index))
	m.journal.Emit(nil, "pipeline.quarantine", map[string]any{
		"slot": slot, "index": index, "stage": stage,
	})
	_, _ = m.flight.Trigger("quarantine")
}

// Stats is a point-in-time snapshot of pipeline progress.
type Stats struct {
	Workers     int
	Generated   uint64 // certificates built and parsed
	Linted      uint64 // certificates linted
	Quarantined uint64 // generate/lint panics contained per item
	InFlight    int64  // slots being processed right now
	Elapsed     time.Duration
	CertsPerSec float64 // linted certificates per second of wall clock
}

func (m *metrics) snapshot(workers int) Stats {
	elapsed := time.Since(m.start)
	s := Stats{
		Workers:     workers,
		Generated:   m.generated.Value() - m.gen0,
		Linted:      m.linted.Value() - m.lint0,
		Quarantined: m.quarantined.Value() - m.quar0,
		InFlight:    int64(m.inFlight.Value()),
		Elapsed:     elapsed,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		s.CertsPerSec = float64(s.Linted) / secs
	}
	// Mirror the derived rate into its gauge so a scrape sees it too.
	m.certsPerSec.Set(s.CertsPerSec)
	return s
}

// Quarantine records one generate or lint panic that was contained to
// its item instead of killing the run.
type Quarantine struct {
	// Slot is the corpus slot the panic happened in.
	Slot int
	// Index is the certificate's global index in the assembled corpus;
	// -1 when the whole slot's generation panicked (no entries exist
	// to index).
	Index int
	// Stage is "generate" or "lint".
	Stage string
	// Err carries the recovered panic value.
	Err error
}

// Result is a measurement plus the pipeline stats observed at
// completion.
type Result struct {
	Measurement *corpus.Measurement
	Stats       Stats
	// Quarantines lists the contained generate/lint panics, in slot
	// order; empty on a healthy run.
	Quarantines []Quarantine
}

// safeGenerateSlot builds slot i, converting a panic inside the
// generator into an error so one hostile slot cannot kill the run.
func safeGenerateSlot(gen *corpus.Generator, i int) (s *corpus.Slot, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: generate slot %d panicked: %v", i, r)
			panicked = true
		}
	}()
	s, err = gen.GenerateSlot(i)
	return s, err, false
}

// runLintSafe lints one certificate, converting a panicking lint into
// a nil result plus an error. The happy path adds nothing: same
// registry Run, one open-coded defer.
func runLintSafe(reg *lint.Registry, c *x509cert.Certificate, opts lint.Options) (res *lint.CertResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: lint panicked: %v", r)
		}
	}()
	return reg.Run(c, opts), nil
}

// slotRun is what Measure and MeasureStream share: the generator, the
// registry and the run's instruments.
type slotRun struct {
	gen  *corpus.Generator
	reg  *lint.Registry
	opts lint.Options
	ctr  *metrics
}

// slot generates slot i and lints its entries into results, reusing its
// room. A generate or lint panic is contained to its item: it is
// accounted and listed in the returned quarantines with its slot-local
// index. A panicking lint leaves a nil result; a panicking generator
// leaves no slot at all (Index -1). A clean generator error is a
// configuration problem and is returned instead.
func (r *slotRun) slot(i int, results []*lint.CertResult) (*corpus.Slot, []*lint.CertResult, []Quarantine, error) {
	tGen := time.Now()
	s, err, panicked := safeGenerateSlot(r.gen, i)
	if err != nil {
		if !panicked {
			return nil, nil, nil, err
		}
		r.ctr.quarantine(i, -1, "generate")
		return nil, nil, []Quarantine{{Slot: i, Index: -1, Stage: "generate", Err: err}}, nil
	}
	r.ctr.genSeconds.Observe(time.Since(tGen).Seconds())
	n := len(s.Entries)
	if s.Precert != nil {
		n++
	}
	r.ctr.generated.Add(uint64(n))
	tLint := time.Now()
	results = slices.Grow(results[:0], len(s.Entries))
	var quar []Quarantine
	for j, e := range s.Entries {
		res, lerr := runLintSafe(r.reg, e.Cert, r.opts)
		if lerr != nil {
			r.ctr.quarantine(i, j, "lint")
			quar = append(quar, Quarantine{Slot: i, Index: j, Stage: "lint", Err: lerr})
		}
		results = append(results, res)
	}
	r.ctr.lintSeconds.Observe(time.Since(tLint).Seconds())
	r.ctr.linted.Add(uint64(len(s.Entries)))
	return s, results, quar, nil
}

// MeasureStream runs the fused generate→lint pipeline without
// retaining the corpus: each slot is linted, handed to fold, and then
// recycled via corpus.ReleaseSlot, so a steady-state run holds
// O(workers) slots in memory instead of O(corpus) and reuses Entry and
// Certificate structs batch-wise.
//
// fold is called from worker goroutines one at a time, in slot order
// (a worker whose slot comes early waits for its turn), on exactly the
// entries Measure keeps: the variant overshoot past cfg.Size is not
// folded. results is parallel to s.Entries; a nil element marks a
// certificate whose lint run panicked (it is also reported in the
// returned quarantine count via Stats). fold must copy out whatever it
// aggregates: the slot, its entries, certificates, DER slices, memoized
// views, and results are all invalid — owned by future slots — the
// moment fold returns. A non-nil error from fold cancels the run.
func MeasureStream(ctx context.Context, cfg corpus.Config, reg *lint.Registry, opts lint.Options, pc Config, fold func(slot int, s *corpus.Slot, results []*lint.CertResult) error) (Stats, error) {
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		return Stats{}, err
	}
	run := &slotRun{gen: gen, reg: reg, opts: opts, ctr: newMetrics(pc)}
	var (
		foldMu sync.Mutex
		turn   = sync.NewCond(&foldMu)
		next   int        // the slot whose turn it is to fold
		left   = cfg.Size // entries still to fold
	)
	reuse := make([][]*lint.CertResult, pc.workers()) // each worker's results, kept across its slots
	err = parallelIndexed(ctx, gen.Slots(), pc, func(w, i int) error {
		run.ctr.inFlight.Add(1)
		defer run.ctr.inFlight.Add(-1)
		s, results, _, err := run.slot(i, reuse[w])
		if s != nil {
			reuse[w] = results
			defer corpus.ReleaseSlot(s)
		}
		foldMu.Lock()
		defer foldMu.Unlock()
		for next != i {
			turn.Wait()
		}
		next++
		turn.Broadcast()
		if s == nil || left == 0 {
			return err
		}
		s.Entries = s.Entries[:min(len(s.Entries), left)]
		left -= len(s.Entries)
		return fold(i, s, results[:len(s.Entries)])
	})
	if err != nil {
		return Stats{}, err
	}
	return run.ctr.snapshot(pc.workers()), nil
}

// Measure generates the corpus for cfg and lints every entry, fanned
// out across pc.Workers fused workers. The returned measurement is
// byte-identical to corpus.Generate + corpus.RunLinter for any worker
// count. The context cancels the run early; the first error (or
// ctx.Err()) is returned.
func Measure(ctx context.Context, cfg corpus.Config, reg *lint.Registry, opts lint.Options, pc Config) (*Result, error) {
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	run := &slotRun{gen: gen, reg: reg, opts: opts, ctr: newMetrics(pc)}
	type slotResult struct {
		slot        *corpus.Slot
		results     []*lint.CertResult // parallel to slot.Entries
		quarantined []Quarantine       // Index holds the slot-local entry index until aggregation
	}
	outs := make([]slotResult, gen.Slots())
	err = parallelIndexed(ctx, gen.Slots(), pc, func(_, i int) error {
		run.ctr.inFlight.Add(1)
		defer run.ctr.inFlight.Add(-1)
		s, results, quar, err := run.slot(i, nil)
		if s == nil {
			s = &corpus.Slot{}
		}
		// Disjoint per-slot cells; parallelIndexed returns only after
		// every worker is done, which orders these writes before the
		// aggregation below.
		outs[i] = slotResult{slot: s, results: results, quarantined: quar}
		return err
	})
	if err != nil {
		return nil, err
	}

	// Aggregate in slot order. Truncation to cfg.Size is mirrored from
	// corpus.Generator.Assemble so the lint results stay parallel to
	// the entry list. Quarantine records are rewritten from slot-local
	// to global certificate indexes as the offsets become known, and a
	// quarantined cell gets an empty result so aggregation never meets
	// a nil.
	slots := make([]*corpus.Slot, len(outs))
	m := &corpus.Measurement{}
	var quarantines []Quarantine
	for i := range outs {
		slots[i] = outs[i].slot
		base := len(m.Results)
		m.Results = append(m.Results, outs[i].results...)
		for _, q := range outs[i].quarantined {
			if q.Index >= 0 {
				q.Index += base
				m.Results[q.Index] = &lint.CertResult{}
			}
			quarantines = append(quarantines, q)
		}
	}
	m.Corpus = gen.Assemble(slots)
	if len(m.Results) > len(m.Corpus.Entries) {
		m.Results = m.Results[:len(m.Corpus.Entries)]
	}
	return &Result{Measurement: m, Stats: run.ctr.snapshot(pc.workers()), Quarantines: quarantines}, nil
}

// LintDERs parses (leniently) and lints raw DER certificates across
// workers, preserving input order — the parallel backend for unilint's
// multi-certificate invocations. Each certificate goes back to the
// parser's pool once linted: a CertResult holds no pointer into it.
func LintDERs(ctx context.Context, ders [][]byte, reg *lint.Registry, opts lint.Options, pc Config) ([]*lint.CertResult, error) {
	out := make([]*lint.CertResult, len(ders))
	err := parallelIndexed(ctx, len(ders), pc, func(_, i int) error {
		// Zero-copy parse: ders[i] is caller-owned and outlives the
		// results, which is exactly the ParseLint ownership contract.
		cert, err := x509cert.ParseLint(ders[i], x509cert.ParseLenient)
		if err != nil {
			return err
		}
		r, lerr := runLintSafe(reg, cert, opts)
		x509cert.ReleaseCertificate(cert)
		if lerr != nil {
			// Surface the panic as a clean per-certificate error so the
			// caller sees which input was hostile.
			return fmt.Errorf("certificate %d: %w", i, lerr)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parallelIndexed runs fn(w, i) for i in [0, n) across pc workers with a
// bounded feed queue and context cancellation; w in [0, pc.workers())
// names the worker, so fn can keep per-worker state without locking.
// Each index is processed exactly once; the first error cancels the
// run. At one worker the loop runs inline.
func parallelIndexed(ctx context.Context, n int, pc Config, fn func(w, i int) error) error {
	workers := pc.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	// A queue of 4× workers keeps the feeder from racing ahead of slow
	// workers without idling fast ones.
	jobs := make(chan int, 4*workers)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := fn(w, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			fail(ctx.Err())
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
