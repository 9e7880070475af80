package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/lint"
	_ "repro/internal/lint/lints" // register the Unicert lints
	"repro/internal/obs"
	"repro/internal/x509cert"
)

// TestMeasureDeterminism is the acceptance test for the sharded
// pipeline: for every worker count the parallel measurement must be
// byte-identical (DER) and value-identical (Tables 1/2/3/11,
// Figures 2/3/4) to the sequential corpus.Generate + corpus.RunLinter
// path.
func TestMeasureDeterminism(t *testing.T) {
	sizes := []int{100, 1000}
	if testing.Short() {
		sizes = []int{100}
	}
	for _, seed := range []int64{1, 2025, 7777} {
		for _, size := range sizes {
			cfg := corpus.Config{Size: size, Seed: seed, PrecertFraction: 0.05, VariantFraction: 0.01}
			ref, err := corpus.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			refM := corpus.RunLinter(ref, lint.Global, lint.Options{})
			for _, workers := range []int{1, 2, 8} {
				res, err := Measure(context.Background(), cfg, lint.Global, lint.Options{}, Config{Workers: workers})
				if err != nil {
					t.Fatalf("seed=%d size=%d workers=%d: %v", seed, size, workers, err)
				}
				m := res.Measurement
				compareMeasurements(t, refM, m, seed, size, workers)
			}
		}
	}
}

func compareMeasurements(t *testing.T, ref, got *corpus.Measurement, seed int64, size, workers int) {
	t.Helper()
	tag := func(what string) string {
		return what
	}
	if len(got.Corpus.Entries) != len(ref.Corpus.Entries) {
		t.Fatalf("seed=%d size=%d workers=%d: entry count %d != %d", seed, size, workers, len(got.Corpus.Entries), len(ref.Corpus.Entries))
	}
	for i := range ref.Corpus.Entries {
		if string(ref.Corpus.Entries[i].DER) != string(got.Corpus.Entries[i].DER) {
			t.Fatalf("seed=%d size=%d workers=%d: entry %d DER differs", seed, size, workers, i)
		}
	}
	if len(got.Corpus.Precerts) != len(ref.Corpus.Precerts) {
		t.Fatalf("seed=%d size=%d workers=%d: precert count %d != %d", seed, size, workers, len(got.Corpus.Precerts), len(ref.Corpus.Precerts))
	}
	for i := range ref.Corpus.Precerts {
		if string(ref.Corpus.Precerts[i].DER) != string(got.Corpus.Precerts[i].DER) {
			t.Fatalf("seed=%d size=%d workers=%d: precert %d DER differs", seed, size, workers, i)
		}
	}
	if got.NCCount() != ref.NCCount() {
		t.Fatalf("seed=%d size=%d workers=%d: NC count %d != %d", seed, size, workers, got.NCCount(), ref.NCCount())
	}
	checks := []struct {
		name string
		ref  any
		got  any
	}{
		{"Table1", ref.Table1(lint.Global), got.Table1(lint.Global)},
		{"Table2", ref.Table2(0), got.Table2(0)},
		{"Table3", ref.Table3(), got.Table3()},
		{"Table11", ref.Table11(0), got.Table11(0)},
		{"Figure2", ref.Figure2(), got.Figure2()},
		{"Figure3-IDN", ref.ValidityCDF(idnFilter), got.ValidityCDF(idnFilter)},
		{"Figure3-NC", ncFilter(ref), ncFilter(got)},
		{"Figure4", ref.Figure4(5), got.Figure4(5)},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.ref, c.got) {
			t.Fatalf("seed=%d size=%d workers=%d: %s differs", seed, size, workers, tag(c.name))
		}
	}
}

func idnFilter(i int, e *corpus.Entry) bool { return e.Class == corpus.ClassIDNCert }

func ncFilter(m *corpus.Measurement) []int {
	return m.ValidityCDF(func(i int, e *corpus.Entry) bool { return m.Noncompliant(i) })
}

func TestLintDERsOrderAndErrors(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Size: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ders := make([][]byte, len(c.Entries))
	for i, e := range c.Entries {
		ders[i] = e.DER
	}
	results, err := LintDERs(context.Background(), ders, lint.Global, lint.Options{}, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ders) {
		t.Fatalf("results %d", len(results))
	}
	for i, r := range results {
		want := lint.Global.Run(c.Entries[i].Cert, lint.Options{})
		if r.Noncompliant() != want.Noncompliant() {
			t.Fatalf("certificate %d verdict differs from direct lint", i)
		}
	}
	// Garbage input must surface a parse error, not a panic or a hole.
	if _, err := LintDERs(context.Background(), [][]byte{{0x00, 0x01}}, lint.Global, lint.Options{}, Config{Workers: 4}); err == nil {
		t.Fatal("garbage DER must error")
	}
}

// TestMeasureCancellation checks both pool shapes: at one worker the
// slots run inline and must still honour a cancelled context.
func TestMeasureCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		_, err := Measure(ctx, corpus.Config{Size: 5000, Seed: 1}, lint.Global, lint.Options{}, Config{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestMeasureExportsMetrics checks satellite accounting: the Stats a
// run reports and the registry a scrape reads are the same numbers.
func TestMeasureExportsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Measure(context.Background(), corpus.Config{Size: 150, Seed: 9, PrecertFraction: 0.1}, lint.Global, lint.Options{}, Config{Workers: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("pipeline_linted_total").Value(); got != res.Stats.Linted {
		t.Errorf("pipeline_linted_total = %d, Stats.Linted = %d", got, res.Stats.Linted)
	}
	if got := reg.Counter("pipeline_generated_total").Value(); got != res.Stats.Generated {
		t.Errorf("pipeline_generated_total = %d, Stats.Generated = %d", got, res.Stats.Generated)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pipeline_linted_total", "pipeline_slot_generate_seconds_bucket", "pipeline_certs_per_sec"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}

	// A second run on the same registry must report run-relative Stats,
	// not registry-lifetime totals.
	res2, err := Measure(context.Background(), corpus.Config{Size: 150, Seed: 9, PrecertFraction: 0.1}, lint.Global, lint.Options{}, Config{Workers: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Linted != res.Stats.Linted {
		t.Errorf("second run Stats.Linted = %d, want run-relative %d", res2.Stats.Linted, res.Stats.Linted)
	}
	if got := reg.Counter("pipeline_linted_total").Value(); got != 2*res.Stats.Linted {
		t.Errorf("registry total %d, want cumulative %d", got, 2*res.Stats.Linted)
	}
}

// panickingRegistry builds a fresh registry holding the Global lints
// plus one deliberately panicking lint that fires on every sel-th
// certificate it sees — the regression harness for the containment
// satellite: before it, one bad lint killed the whole run.
func panickingRegistry(t *testing.T, every int) *lint.Registry {
	t.Helper()
	reg := lint.NewRegistry()
	for _, l := range lint.Global.All() {
		cp := *l
		reg.Register(&cp)
	}
	var seen atomic.Int64
	reg.Register(&lint.Lint{
		Name:        "e_test_panicking_lint",
		Description: "panics to prove containment",
		Severity:    lint.Error,
		Source:      lint.SourceCommunity,
		Run: func(c *x509cert.Certificate) lint.Result {
			if n := seen.Add(1); every > 0 && n%int64(every) == 0 {
				panic(fmt.Sprintf("hostile certificate #%d", n))
			}
			return lint.PassResult
		},
	})
	return reg
}

// TestMeasureQuarantinesPanickingLint: a lint that panics on some
// certificates must not kill Measure; the affected items are
// quarantined with their indexes, everything else lints normally.
func TestMeasureQuarantinesPanickingLint(t *testing.T) {
	const size = 120
	reg := obs.NewRegistry()
	res, err := Measure(context.Background(), corpus.Config{Size: size, Seed: 17}, panickingRegistry(t, 10), lint.Options{}, Config{Workers: 4, Obs: reg})
	if err != nil {
		t.Fatalf("panicking lint killed the run: %v", err)
	}
	if res.Stats.Quarantined == 0 || len(res.Quarantines) == 0 {
		t.Fatalf("no quarantines recorded: stats %+v", res.Stats)
	}
	if uint64(len(res.Quarantines)) != res.Stats.Quarantined {
		t.Fatalf("Quarantines %d != Stats.Quarantined %d", len(res.Quarantines), res.Stats.Quarantined)
	}
	if got := reg.Counter("pipeline_quarantined_total").Value(); got != res.Stats.Quarantined {
		t.Fatalf("pipeline_quarantined_total = %d, Stats = %d", got, res.Stats.Quarantined)
	}
	if len(res.Measurement.Results) != len(res.Measurement.Corpus.Entries) {
		t.Fatalf("results not parallel to entries after quarantine: %d vs %d",
			len(res.Measurement.Results), len(res.Measurement.Corpus.Entries))
	}
	for _, q := range res.Quarantines {
		if q.Stage != "lint" {
			t.Fatalf("stage = %q", q.Stage)
		}
		if q.Index < 0 || q.Index >= len(res.Measurement.Results) {
			t.Fatalf("quarantine index %d out of range", q.Index)
		}
		if q.Err == nil || !strings.Contains(q.Err.Error(), "hostile certificate") {
			t.Fatalf("quarantine error = %v", q.Err)
		}
		// The quarantined cell holds a valid empty result, not a nil
		// hole that would crash aggregation.
		if res.Measurement.Results[q.Index] == nil {
			t.Fatalf("quarantined result %d is nil", q.Index)
		}
	}
	// Healthy items are unaffected: a clean run over the same corpus
	// agrees wherever no quarantine happened.
	clean, err := Measure(context.Background(), corpus.Config{Size: size, Seed: 17}, lint.Global, lint.Options{}, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	quarantined := make(map[int]bool, len(res.Quarantines))
	for _, q := range res.Quarantines {
		quarantined[q.Index] = true
	}
	for i := range clean.Measurement.Results {
		if quarantined[i] {
			continue
		}
		if clean.Measurement.Results[i].Noncompliant() != res.Measurement.Results[i].Noncompliant() {
			t.Fatalf("healthy certificate %d verdict changed by quarantine machinery", i)
		}
	}
}

// TestMeasureStreamQuarantinesPanickingLint runs the slot body shared
// with Measure from the streaming side: the panicking entries arrive as
// nil results, Stats counts them, and every other result matches what
// Measure retains for the same corpus.
func TestMeasureStreamQuarantinesPanickingLint(t *testing.T) {
	cfg := corpus.Config{Size: 120, Seed: 17}
	ref, err := Measure(context.Background(), cfg, lint.Global, lint.Options{}, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Without variants every slot holds one entry: slot i is certificate i.
	failures := func(r *lint.CertResult) (out []string) {
		for _, f := range r.Failed() {
			out = append(out, f.Lint.Name+": "+f.Details)
		}
		return out
	}
	nils := 0
	stats, err := MeasureStream(context.Background(), cfg, panickingRegistry(t, 10), lint.Options{}, Config{Workers: 4},
		func(slot int, s *corpus.Slot, results []*lint.CertResult) error {
			for j, r := range results {
				if r == nil {
					nils++
					continue
				}
				if got, want := failures(r), failures(ref.Measurement.Results[slot+j]); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("slot %d: failures %v, Measure has %v", slot, got, want)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("panicking lint killed the stream: %v", err)
	}
	if nils == 0 || stats.Quarantined != uint64(nils) {
		t.Fatalf("%d nil results, Stats.Quarantined = %d", nils, stats.Quarantined)
	}
}

// TestLintDERsPanickingLintErrorsWithIndex: the lint-only entry point
// surfaces a panicking lint as a per-certificate error naming the
// input, instead of a process panic.
func TestLintDERsPanickingLintErrorsWithIndex(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Size: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ders := make([][]byte, len(c.Entries))
	for i, e := range c.Entries {
		ders[i] = e.DER
	}
	_, err = LintDERs(context.Background(), ders, panickingRegistry(t, 1), lint.Options{}, Config{Workers: 2})
	if err == nil {
		t.Fatal("panicking lint must surface as an error")
	}
	if !strings.Contains(err.Error(), "certificate ") || !strings.Contains(err.Error(), "lint panicked") {
		t.Fatalf("error lacks certificate index context: %v", err)
	}
}

// TestPipelineInstrumentationAllocBudget guards the accounting budget:
// the per-slot instrument sequence the worker loop executes must not
// allocate, so instrumentation adds 0 (≤ the budgeted 2) allocations
// per certificate.
func TestPipelineInstrumentationAllocBudget(t *testing.T) {
	ctr := newMetrics(Config{Obs: obs.NewRegistry()})
	if n := testing.AllocsPerRun(500, func() {
		ctr.inFlight.Add(1)
		t0 := time.Now()
		ctr.genSeconds.Observe(time.Since(t0).Seconds())
		ctr.generated.Add(26)
		ctr.lintSeconds.Observe(time.Since(t0).Seconds())
		ctr.linted.Add(25)
		ctr.inFlight.Add(-1)
	}); n > 0 {
		t.Fatalf("per-slot instrumentation allocates %v, want 0", n)
	}
}

func TestMeasureStats(t *testing.T) {
	const size = 200
	res, err := Measure(context.Background(), corpus.Config{Size: size, Seed: 3, PrecertFraction: 0.1}, lint.Global, lint.Options{}, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Workers != 2 {
		t.Errorf("workers %d", s.Workers)
	}
	if s.Linted < size {
		t.Errorf("linted %d < %d", s.Linted, size)
	}
	if s.Generated < s.Linted {
		t.Errorf("generated %d < linted %d", s.Generated, s.Linted)
	}
	if s.CertsPerSec <= 0 {
		t.Errorf("certs/sec %f", s.CertsPerSec)
	}
	if len(res.Measurement.Results) != len(res.Measurement.Corpus.Entries) {
		t.Errorf("results not parallel to entries: %d vs %d", len(res.Measurement.Results), len(res.Measurement.Corpus.Entries))
	}
}

// TestMeasureDefaultWorkers runs Measure with the zero Config, which
// sizes the pool to the machine, and checks every entry has a result.
func TestMeasureDefaultWorkers(t *testing.T) {
	res, err := Measure(context.Background(), corpus.Config{Size: 300, Seed: 5}, lint.Global, lint.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurement.Results) < 300 {
		t.Fatalf("results %d", len(res.Measurement.Results))
	}
}

// TestMeasureStreamEquivalence checks the streaming (slot-recycling)
// pipeline against the retaining one: folding per-lint finding counts
// and a DER checksum out of MeasureStream must reproduce exactly what
// Measure retains, for any worker count. The fold copies everything it
// aggregates, per the MeasureStream contract.
func TestMeasureStreamEquivalence(t *testing.T) {
	cfg := corpus.Config{Size: 300, Seed: 9, PrecertFraction: 0.1, VariantFraction: 0.05}

	type key struct {
		lint   string
		status lint.Status
	}
	aggregate := func(res *lint.CertResult, into map[key]int) {
		for _, f := range res.Findings {
			into[key{res.Lint(f).Name, f.Status}]++
		}
	}
	derSum := func(der []byte) uint64 {
		var h uint64 = 1469598103934665603
		for _, b := range der {
			h = (h ^ uint64(b)) * 1099511628211
		}
		return h
	}

	ref, err := Measure(context.Background(), cfg, lint.Global, lint.Options{}, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	refCounts := map[key]int{}
	for _, r := range ref.Measurement.Results {
		aggregate(r, refCounts)
	}
	var refDER uint64
	for _, e := range ref.Measurement.Corpus.Entries {
		refDER += derSum(e.DER)
	}

	for _, workers := range []int{1, 2, 8} {
		gotCounts := map[key]int{}
		var gotDER uint64
		entries := 0
		stats, err := MeasureStream(context.Background(), cfg, lint.Global, lint.Options{}, Config{Workers: workers},
			func(slot int, s *corpus.Slot, results []*lint.CertResult) error {
				if len(results) != len(s.Entries) {
					return fmt.Errorf("slot %d: %d results for %d entries", slot, len(results), len(s.Entries))
				}
				for i, e := range s.Entries {
					entries++
					gotDER += derSum(e.DER)
					if results[i] == nil {
						return fmt.Errorf("slot %d entry %d: unexpected quarantine", slot, i)
					}
					aggregate(results[i], gotCounts)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if entries != len(ref.Measurement.Corpus.Entries) {
			t.Fatalf("workers=%d: folded %d entries, Measure retained %d", workers, entries, len(ref.Measurement.Corpus.Entries))
		}
		if gotDER != refDER {
			t.Fatalf("workers=%d: DER checksum diverged", workers)
		}
		if !reflect.DeepEqual(gotCounts, refCounts) {
			t.Fatalf("workers=%d: finding counts diverge:\nstream: %v\nretain: %v", workers, gotCounts, refCounts)
		}
		if stats.Linted != uint64(entries) {
			t.Fatalf("workers=%d: Stats.Linted = %d, folded %d", workers, stats.Linted, entries)
		}
	}
}

// TestMeasureStreamFoldError checks that a failing fold cancels the
// run and surfaces the error.
func TestMeasureStreamFoldError(t *testing.T) {
	boom := errors.New("fold rejected slot")
	_, err := MeasureStream(context.Background(), corpus.Config{Size: 200, Seed: 3}, lint.Global, lint.Options{}, Config{Workers: 4},
		func(int, *corpus.Slot, []*lint.CertResult) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// verdict lists every finding of r as lint, status and detail.
func verdict(r *lint.CertResult) []string {
	out := make([]string, len(r.Findings))
	for i, f := range r.Findings {
		out[i] = fmt.Sprintf("%s %v %q", r.Lint(f).Name, f.Status, r.Details(f))
	}
	return out
}

// TestLintDERsMatchesFreshParse guards LintDERs' release of each
// certificate after its lint: every result equals a fresh per-certificate
// ParseWithMode + Run, and still does after a second call has reused
// the pooled certificates for other DERs.
func TestLintDERsMatchesFreshParse(t *testing.T) {
	ders := func(seed int64) [][]byte {
		c, err := corpus.Generate(corpus.Config{Size: 200, Seed: seed, PrecertFraction: 0.05, VariantFraction: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(c.Entries))
		for i, e := range c.Entries {
			out[i] = e.DER
		}
		return out
	}
	first, second := ders(33), ders(34)
	want := make([][]string, len(first))
	for i, der := range first {
		c, err := x509cert.ParseWithMode(der, x509cert.ParseLenient)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = verdict(lint.Global.Run(c, lint.Options{}))
	}
	for _, workers := range []int{1, 2} {
		results, err := LintDERs(context.Background(), first, lint.Global, lint.Options{}, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			for i, r := range results {
				if got := verdict(r); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("workers=%d %s: certificate %d:\n got %q\nwant %q", workers, when, i, got, want[i])
				}
			}
		}
		check("first call")
		if _, err := LintDERs(context.Background(), second, lint.Global, lint.Options{}, Config{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		check("after a second call")
	}
}

// TestMeasureStreamFoldsMeasureEntries: with variants drawn, slots
// overshoot cfg.Size and Measure truncates the tail. MeasureStream must
// fold exactly Measure's entries, in Measure's order, at any worker
// count.
func TestMeasureStreamFoldsMeasureEntries(t *testing.T) {
	cfg := corpus.Config{Size: 300, Seed: 9, VariantFraction: 0.5}
	ref, err := Measure(context.Background(), cfg, lint.Global, lint.Options{}, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Measurement.Corpus.Entries) != cfg.Size {
		t.Fatalf("Measure retained %d entries, want %d", len(ref.Measurement.Corpus.Entries), cfg.Size)
	}
	for _, workers := range []int{1, 2, 4} {
		var ders []string
		var verdicts [][]string
		_, err := MeasureStream(context.Background(), cfg, lint.Global, lint.Options{}, Config{Workers: workers},
			func(slot int, s *corpus.Slot, results []*lint.CertResult) error {
				for j, e := range s.Entries {
					ders = append(ders, string(e.DER))
					verdicts = append(verdicts, verdict(results[j]))
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(ders) != cfg.Size {
			t.Fatalf("workers=%d: folded %d entries, Measure retained %d", workers, len(ders), cfg.Size)
		}
		for i, e := range ref.Measurement.Corpus.Entries {
			if ders[i] != string(e.DER) {
				t.Fatalf("workers=%d: entry %d differs from Measure's", workers, i)
			}
			if want := verdict(ref.Measurement.Results[i]); !reflect.DeepEqual(verdicts[i], want) {
				t.Fatalf("workers=%d: entry %d verdict %q, Measure has %q", workers, i, verdicts[i], want)
			}
		}
	}
}
