package repro

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index). Each
// benchmark prints its table once — running
//
//	go test -bench=. -benchmem
//
// regenerates every row/series the paper reports alongside the cost of
// producing it.

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/asn1der"
	"repro/internal/browser"
	"repro/internal/certgen"
	"repro/internal/corpus"
	"repro/internal/ctlog"
	"repro/internal/difftest"
	"repro/internal/hostverify"
	"repro/internal/lint"
	_ "repro/internal/lint/lints" // register the 95 Unicert lints
	"repro/internal/middlebox"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/revocation"
	"repro/internal/rfcrules"
	"repro/internal/strenc"
	"repro/internal/tlsimpl"
	"repro/internal/tlswire"
	"repro/internal/uni"
	"repro/internal/x509cert"
)

// benchCorpusSize keeps bench iterations affordable while preserving
// the population shapes (1:10 of the default 1:1000 scale).
const benchCorpusSize = 3480

var (
	benchOnce sync.Once
	benchM    *corpus.Measurement
	benchMAll *corpus.Measurement // effective dates ignored
)

func sharedMeasurement(tb testing.TB) *corpus.Measurement {
	tb.Helper()
	benchOnce.Do(func() {
		cfg := corpus.DefaultConfig()
		cfg.Size = benchCorpusSize
		c, err := corpus.Generate(cfg)
		if err != nil {
			panic(err)
		}
		benchM = corpus.RunLinter(c, lint.Global, lint.Options{})
		benchMAll = corpus.RunLinter(c, lint.Global, lint.Options{IgnoreEffectiveDates: true})
	})
	return benchM
}

var printOnce sync.Map

func printTable(name, table string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, table)
	}
}

// ——— E1: Table 1 ———

func BenchmarkTable1Taxonomy(b *testing.B) {
	m := sharedMeasurement(b)
	b.ResetTimer()
	var rows []corpus.TaxonomyRow
	for i := 0; i < b.N; i++ {
		rows = m.Table1(lint.Global)
	}
	b.StopTimer()
	printTable("Table 1 (noncompliance taxonomy)", report.Table1(rows, m.NCCount()))
}

// ——— E2: Table 2 ———

func BenchmarkTable2Issuers(b *testing.B) {
	m := sharedMeasurement(b)
	b.ResetTimer()
	var rows []corpus.IssuerRow
	for i := 0; i < b.N; i++ {
		rows = m.Table2(10)
	}
	b.StopTimer()
	printTable("Table 2 (top issuers by NC Unicerts)", report.Table2(rows))
}

// ——— E3: Table 3 ———

func BenchmarkTable3Variants(b *testing.B) {
	m := sharedMeasurement(b)
	b.ResetTimer()
	var counts map[corpus.VariantStrategy]int
	for i := 0; i < b.N; i++ {
		counts = m.Table3()
	}
	b.StopTimer()
	printTable("Table 3 (Subject variant strategies)", report.Table3(counts))
}

// ——— E4/E5: Tables 4 and 5 ———

var (
	diffOnce sync.Once
	diffT4   []difftest.DecodeFinding
	diffT5   []difftest.CharFinding
)

func sharedLibraryAnalysis(b *testing.B) ([]difftest.DecodeFinding, []difftest.CharFinding) {
	b.Helper()
	diffOnce.Do(func() {
		h, err := difftest.NewHarness(2025)
		if err != nil {
			panic(err)
		}
		if diffT4, err = h.Table4(); err != nil {
			panic(err)
		}
		if diffT5, err = h.Table5(); err != nil {
			panic(err)
		}
	})
	return diffT4, diffT5
}

func BenchmarkTable4Decoding(b *testing.B) {
	sharedLibraryAnalysis(b)
	h, err := difftest.NewHarness(11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table4(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("Table 4 (decoding methods)", report.Table4(diffT4))
}

func BenchmarkTable5CharChecks(b *testing.B) {
	sharedLibraryAnalysis(b)
	h, err := difftest.NewHarness(12)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table5(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("Table 5 (character-checking violations)", report.Table5(diffT5))
}

// ——— E6: Table 6 ———

func benchForgedCert(b *testing.B) *x509cert.Certificate {
	b.Helper()
	caKey, err := x509cert.GenerateKey(41)
	if err != nil {
		b.Fatal(err)
	}
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(6),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Bench CA")),
		Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "victim.example\x00.attacker.site")),
		NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN:          []x509cert.GeneralName{x509cert.DNSName("victim.example\x00.attacker.site")},
	}
	der, err := x509cert.Build(tpl, caKey, caKey)
	if err != nil {
		b.Fatal(err)
	}
	c, err := x509cert.Parse(der)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkTable6Monitors(b *testing.B) {
	forged := benchForgedCert(b)
	b.ResetTimer()
	var results []monitor.MisleadResult
	for i := 0; i < b.N; i++ {
		results = monitor.MisleadExperiment(forged, "victim.example")
	}
	b.StopTimer()
	printTable("Table 6 (CT monitor tolerance)", report.Table6(results))
}

// ——— E7: Table 11 ———

func BenchmarkTable11TopLints(b *testing.B) {
	m := sharedMeasurement(b)
	b.ResetTimer()
	var rows []corpus.LintRow
	for i := 0; i < b.N; i++ {
		rows = m.Table11(25)
	}
	b.StopTimer()
	printTable("Table 11 (top lints)", report.Table11(rows))
}

// ——— E8: Table 14 ———

func BenchmarkTable14Browsers(b *testing.B) {
	value, target := "www.‮lapyap‬.com", "www.paypal.com"
	b.ResetTimer()
	var findings []browser.SpoofFinding
	for i := 0; i < b.N; i++ {
		findings = browser.SpoofExperiment(value, target)
	}
	b.StopTimer()
	var rows [][]string
	for _, f := range findings {
		beh := browser.Behaviors()[f.Engine]
		rows = append(rows, []string{
			f.Engine.String(),
			fmt.Sprintf("%v", beh.C0C1Visible),
			fmt.Sprintf("%v", beh.LayoutInvisible),
			fmt.Sprintf("%v", beh.HomographFeasible),
			fmt.Sprintf("%v", beh.IncorrectSubstitutions),
			fmt.Sprintf("%v", beh.FlawedASN1RangeChecking),
			fmt.Sprintf("%v", beh.WarningSpoofable),
			fmt.Sprintf("%q", f.Rendered),
		})
	}
	printTable("Table 14 (browser rendering and spoofing)", report.Table(
		[]string{"Engine", "C0C1 visible", "Layout invisible", "Homograph", "Bad substitution", "Flawed range chk", "Warning spoofable", "Bidi CN renders as"},
		rows))
}

// ——— E9–E11: Figures 2–4 ———

func BenchmarkFigure2Trend(b *testing.B) {
	m := sharedMeasurement(b)
	b.ResetTimer()
	var rows []corpus.YearRow
	for i := 0; i < b.N; i++ {
		rows = m.Figure2()
	}
	b.StopTimer()
	printTable("Figure 2 (issuance trend)", report.Figure2(rows))
}

func BenchmarkFigure3ValidityCDF(b *testing.B) {
	m := sharedMeasurement(b)
	b.ResetTimer()
	var series map[string][]int
	for i := 0; i < b.N; i++ {
		series = map[string][]int{
			"IDNCert":      m.ValidityCDF(func(i int, e *corpus.Entry) bool { return e.Class == corpus.ClassIDNCert }),
			"OtherUnicert": m.ValidityCDF(func(i int, e *corpus.Entry) bool { return e.Class == corpus.ClassOtherUnicert }),
			"Noncompliant": m.ValidityCDF(func(i int, e *corpus.Entry) bool { return m.Noncompliant(i) }),
		}
	}
	b.StopTimer()
	printTable("Figure 3 (validity CDF)", report.Figure3(series))
}

func BenchmarkFigure4FieldMatrix(b *testing.B) {
	m := sharedMeasurement(b)
	b.ResetTimer()
	var matrix map[string]map[string]corpus.FieldCell
	for i := 0; i < b.N; i++ {
		matrix = m.Figure4(20)
	}
	b.StopTimer()
	printTable("Figure 4 (field × issuer matrix)", report.Figure4(matrix))
}

// ——— E12: §5.1 encoding-error impact (chain rebuild + verify) ———

func BenchmarkEncodingErrorImpact(b *testing.B) {
	m := sharedMeasurement(b)
	// Collect the encoding-error subset (cf. the paper's 7,415 certs).
	var subset []*corpus.Entry
	for i, e := range m.Corpus.Entries {
		if m.Noncompliant(i) {
			for _, f := range m.Results[i].Failed() {
				if f.Lint.Taxonomy == lint.T3InvalidEncoding {
					subset = append(subset, e)
					break
				}
			}
		}
	}
	if len(subset) == 0 {
		b.Skip("no encoding-error certificates in this corpus draw")
	}
	b.ResetTimer()
	verified := 0
	for i := 0; i < b.N; i++ {
		verified = 0
		for _, e := range subset {
			// Chain reconstruction: locate the issuing CA and verify the
			// signature, as the paper did via AIA (5,772 of 7,415).
			ca := m.Corpus.CAFor(e.IssuerOrg)
			if ca != nil && x509cert.VerifySignature(ca, e.Cert) {
				verified++
			}
		}
	}
	b.StopTimer()
	printTable("§5.1 encoding-error impact", fmt.Sprintf(
		"encoding-error Unicerts: %d of %d (paper: 7,415 of 34.8M); chain-verified: %d (paper: 5,772)\n",
		len(subset), len(m.Corpus.Entries), verified))
}

// ——— E13: §6.2 traffic obfuscation ———

func BenchmarkTrafficObfuscation(b *testing.B) {
	caKey, err := x509cert.GenerateKey(43)
	if err != nil {
		b.Fatal(err)
	}
	rule := middlebox.Rule{Field: "CN", Value: "Evil Entity"}
	payloads := middlebox.ObfuscationPayloads("Evil Entity")
	certs := make([]*x509cert.Certificate, 0, len(payloads))
	for i, p := range payloads {
		tpl := &x509cert.Template{
			SerialNumber: big.NewInt(int64(100 + i)),
			Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Obf CA")),
			Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, p)),
			NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
			SAN:          []x509cert.GeneralName{x509cert.DNSName("obf.example")},
		}
		der, err := x509cert.Build(tpl, caKey, caKey)
		if err != nil {
			b.Fatal(err)
		}
		c, err := x509cert.Parse(der)
		if err != nil {
			b.Fatal(err)
		}
		certs = append(certs, c)
	}
	b.ResetTimer()
	evaded := 0
	for i := 0; i < b.N; i++ {
		evaded = 0
		for _, c := range certs {
			for _, res := range middlebox.Evasion(c, rule) {
				if res.Evaded {
					evaded++
				}
			}
		}
	}
	b.StopTimer()
	printTable("§6.2 traffic obfuscation", fmt.Sprintf(
		"%d of %d payload×engine combinations evade the CN rule\n", evaded, len(certs)*3))
}

// ——— E14: rule extraction ———

func BenchmarkRuleExtraction(b *testing.B) {
	var rules []rfcrules.Rule
	for i := 0; i < b.N; i++ {
		e := rfcrules.NewEngine()
		for _, d := range e.Documents() {
			_ = rfcrules.FilterSections(d, rfcrules.Keywords)
		}
		_ = rfcrules.ResolveUpdates(e.Documents())
		rules = e.DeriveRules()
	}
	b.StopTimer()
	newCount := 0
	for _, r := range rules {
		if r.New {
			newCount++
		}
	}
	printTable("§3.1.1 rule extraction", fmt.Sprintf("derived %d constraint rules (%d new)\n", len(rules), newCount))
}

// ——— E2E pipeline benchmarks (budgets in scripts/alloc_budgets.txt) ———

// benchE2ESize returns the end-to-end corpus size: the paper-scale
// default of 34,800 (1:1000 of the dataset), overridable through
// BENCH_E2E_SIZE for quick runs.
func benchE2ESize(b *testing.B) int {
	if s := os.Getenv("BENCH_E2E_SIZE"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			b.Fatalf("bad BENCH_E2E_SIZE %q", s)
		}
		return n
	}
	return 34800
}

func benchMeasureE2E(b *testing.B, workers int) {
	reg := obs.NewRegistry()
	cfg := corpus.DefaultConfig()
	cfg.Size = benchE2ESize(b)
	certs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Measure(context.Background(), cfg, lint.Global, lint.Options{},
			pipeline.Config{Workers: workers, Obs: reg})
		if err != nil {
			b.Fatal(err)
		}
		certs += len(res.Measurement.Corpus.Entries)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(certs)/secs, "certs/s")
	}
}

// BenchmarkMeasureCorpusE2E1 is the sequential baseline: it covers the
// pipeline's single-worker path.
func BenchmarkMeasureCorpusE2E1(b *testing.B) { benchMeasureE2E(b, 1) }

// BenchmarkMeasureCorpusE2E8 measures the fused pipeline at 8 workers.
func BenchmarkMeasureCorpusE2E8(b *testing.B) { benchMeasureE2E(b, 8) }

// BenchmarkMeasureCorpusE2ENumCPU measures the default sizing.
func BenchmarkMeasureCorpusE2ENumCPU(b *testing.B) { benchMeasureE2E(b, 0) }

// BenchmarkMeasureCorpusStreamE2E8 measures the slot-recycling
// streaming pipeline at 8 workers: same generate→lint work as
// MeasureCorpusE2E8, but slots are folded and released instead of
// retained, so steady-state memory is O(workers) and Entry/Certificate
// structs recycle batch-wise. The fold mirrors a realistic consumer by
// tallying per-status finding counts.
func BenchmarkMeasureCorpusStreamE2E8(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.Size = benchE2ESize(b)
	certs := 0
	var failed int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := pipeline.MeasureStream(context.Background(), cfg, lint.Global, lint.Options{},
			pipeline.Config{Workers: 8},
			func(_ int, s *corpus.Slot, results []*lint.CertResult) error {
				certs += len(s.Entries)
				for _, r := range results {
					if r != nil && r.Noncompliant() {
						failed++
					}
				}
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(certs)/secs, "certs/s")
	}
	_ = failed
}

// BenchmarkPipelineGenerateOnly isolates the generation stage (build,
// sign, parse) at the shared bench scale.
func BenchmarkPipelineGenerateOnly(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.Size = benchCorpusSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corpus.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*benchCorpusSize)/secs, "certs/s")
	}
}

// BenchmarkPipelineLintOnly isolates the lint stage over a
// pre-generated corpus.
func BenchmarkPipelineLintOnly(b *testing.B) {
	c := sharedMeasurement(b).Corpus
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = corpus.RunLinter(c, lint.Global, lint.Options{})
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(c.Entries))/secs, "certs/s")
	}
}

// lintDERsOnce holds a corpus no other benchmark parses: its own seed
// keeps the text it decodes from having been seen earlier in the run.
var (
	lintDERsOnce sync.Once
	lintDERs     [][]byte
)

// BenchmarkPipelineLintDERs is the traffic the batch path and the live
// consumer see: it parses and lints each DER of a fresh corpus once, as
// pipeline.LintDERs does, so every certificate decodes its text anew.
// LintOnly instead re-lints certificates whose text is already decoded.
func BenchmarkPipelineLintDERs(b *testing.B) {
	lintDERsOnce.Do(func() {
		cfg := corpus.DefaultConfig()
		cfg.Size, cfg.Seed = benchCorpusSize, 33
		c, err := corpus.Generate(cfg)
		if err != nil {
			panic(err)
		}
		for _, e := range c.Entries {
			lintDERs = append(lintDERs, e.DER)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.LintDERs(context.Background(), lintDERs, lint.Global, lint.Options{}, pipeline.Config{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(lintDERs))/secs, "certs/s")
	}
}

// ——— Throughput benchmarks for the core pipeline ———

func BenchmarkLintSingleCertificate(b *testing.B) {
	der := sharedMeasurement(b).Corpus.Entries[0].DER
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cert, err := x509cert.ParseWithMode(der, x509cert.ParseLenient)
		if err != nil {
			b.Fatal(err)
		}
		lint.Global.Run(cert, lint.Options{})
	}
}

func BenchmarkParseCertificate(b *testing.B) {
	m := sharedMeasurement(b)
	der := m.Corpus.Entries[0].DER
	b.SetBytes(int64(len(der)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x509cert.Parse(der); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildCertificate(b *testing.B) {
	caKey, _ := x509cert.GenerateKey(3)
	leafKey, _ := x509cert.GenerateKey(4)
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(1),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Perf CA")),
		Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "perf.example")),
		NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN:          []x509cert.GeneralName{x509cert.DNSName("perf.example")},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x509cert.Build(tpl, caKey, leafKey); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNFCNormalize(b *testing.B) {
	s := "Příliš žluťoučký kůň úpěl ďábelské ódy — Středočeský kraj"
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = uni.NFC(s)
	}
}

func BenchmarkDecodeUCS2(b *testing.B) {
	content, _ := strenc.Encode(strenc.UCS2, "株式会社 中国銀行 East Asia Branch Office")
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strenc.Decode(strenc.UCS2, strenc.Strict, content); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerkleInclusionProof(b *testing.B) {
	var tree ctlog.Tree
	for i := 0; i < 4096; i++ {
		tree.Append(ctlog.LeafHash([]byte{byte(i), byte(i >> 8)}))
	}
	root, _ := tree.Root(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % 4096
		proof, err := tree.InclusionProof(idx, 4096)
		if err != nil {
			b.Fatal(err)
		}
		if !ctlog.VerifyInclusion(ctlog.LeafHash([]byte{byte(idx), byte(idx >> 8)}), idx, 4096, proof, root) {
			b.Fatal("proof failed")
		}
	}
}

// ——— Ablation benchmarks (DESIGN.md design choices) ———

func BenchmarkAblationEffectiveDates(b *testing.B) {
	m := sharedMeasurement(b)
	gated := m.NCCount()
	ungated := benchMAll.NCCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = benchMAll.NCCount()
	}
	b.StopTimer()
	ratio := float64(ungated) / float64(maxInt(gated, 1))
	printTable("Ablation: effective dates", fmt.Sprintf(
		"date-gated NC: %d; all-dates NC: %d (×%.1f — paper: 249.3K → 1.8M, ×7.2)\n", gated, ungated, ratio))
}

func BenchmarkAblationStrictDER(b *testing.B) {
	// Lenient BER parsing accepts non-minimal lengths strict DER
	// rejects; measure both paths on a BER-ish certificate.
	m := sharedMeasurement(b)
	der := m.Corpus.Entries[0].DER
	b.Run("strict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := x509cert.ParseWithMode(der, x509cert.ParseStrict); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lenient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := x509cert.ParseWithMode(der, x509cert.ParseLenient); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationNFCQuickCheck(b *testing.B) {
	s := "Städtische Werke München" // NFC input: quick path
	b.Run("quickcheck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = uni.HasDecomposedSequence(s)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = uni.IsNFC(s)
		}
	})
}

func BenchmarkAblationPrecertFilter(b *testing.B) {
	m := sharedMeasurement(b)
	log, err := ctlog.NewLog(77)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range m.Corpus.Entries[:200] {
		if _, err := log.AddParsed(e.DER, false); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range m.Corpus.Precerts {
		if _, err := log.AddParsed(p.DER, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var kept int
	for i := 0; i < b.N; i++ {
		kept = len(log.RegularCertificates())
	}
	b.StopTimer()
	printTable("Ablation: precert filter", fmt.Sprintf(
		"log entries: %d; after §4.1 precert filter: %d\n", log.Size(), kept))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Guard: the shared corpus reproduces the paper's headline number.
func TestBenchCorpusShape(t *testing.T) {
	nc := sharedMeasurement(t).NCCount()
	total := len(benchM.Corpus.Entries)
	rate := float64(nc) / float64(total)
	if rate < 0.002 || rate > 0.025 {
		t.Errorf("bench corpus NC rate %.4f far from the paper's 0.0072", rate)
	}
	if benchMAll.NCCount() < 3*nc {
		t.Errorf("date ablation ratio too small: %d vs %d", benchMAll.NCCount(), nc)
	}
	_ = asn1der.TagUTF8String // assert substrate linkage
	_ = certgen.FieldSubjectCN
}

// ——— Appendix F.2: monitor tolerance over sampled NC Unicerts ———

func BenchmarkMonitorTolerance(b *testing.B) {
	m := sharedMeasurement(b)
	var sample []*x509cert.Certificate
	for i, e := range m.Corpus.Entries {
		if m.Noncompliant(i) {
			sample = append(sample, e.Cert)
		}
		if len(sample) >= 200 {
			break
		}
	}
	if len(sample) == 0 {
		b.Skip("no NC certificates in this draw")
	}
	b.ResetTimer()
	var rows []monitor.ToleranceRow
	for i := 0; i < b.N; i++ {
		rows = monitor.ToleranceExperiment(sample)
	}
	b.StopTimer()
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Monitor, fmt.Sprintf("%d", r.Sampled), fmt.Sprintf("%d", r.Found),
			fmt.Sprintf("%d", r.Missed), fmt.Sprintf("%d", r.Refused),
		})
	}
	printTable("Appendix F.2 (monitor tolerance over NC sample)", report.Table(
		[]string{"Monitor", "Sampled", "Found", "Missed", "Refused"}, cells))
}

// ——— §5.2 end-to-end: CRL spoofing through library parsers ———

func BenchmarkCRLSpoofing(b *testing.B) {
	caKey, err := x509cert.GenerateKey(811)
	if err != nil {
		b.Fatal(err)
	}
	leafKey, err := x509cert.GenerateKey(812)
	if err != nil {
		b.Fatal(err)
	}
	caDN := x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Spoof CA"))
	caDER, err := x509cert.BuildSelfSigned(&x509cert.Template{
		SerialNumber: big.NewInt(1), Issuer: caDN, Subject: caDN,
		NotBefore: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2034, 1, 1, 0, 0, 0, 0, time.UTC), IsCA: true,
	}, caKey)
	if err != nil {
		b.Fatal(err)
	}
	ca, err := x509cert.Parse(caDER)
	if err != nil {
		b.Fatal(err)
	}
	crafted := "http://ssl\x01test.com/ca.crl"
	stripped := "http://ssl.test.com/ca.crl"
	leafDER, err := x509cert.Build(&x509cert.Template{
		SerialNumber: big.NewInt(4242), Issuer: caDN,
		Subject:               x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "victim.example")),
		NotBefore:             time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:              time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN:                   []x509cert.GeneralName{x509cert.DNSName("victim.example")},
		CRLDistributionPoints: []x509cert.GeneralName{x509cert.URIName(crafted)},
	}, caKey, leafKey)
	if err != nil {
		b.Fatal(err)
	}
	realCRL, _ := x509cert.BuildCRL(&x509cert.CRLTemplate{
		Issuer: caDN, ThisUpdate: time.Date(2025, 2, 1, 0, 0, 0, 0, time.UTC),
		Revoked: []x509cert.RevokedCertificate{{SerialNumber: big.NewInt(4242), RevocationDate: time.Date(2025, 1, 20, 0, 0, 0, 0, time.UTC)}},
	}, caKey)
	attackerCRL, _ := x509cert.BuildCRL(&x509cert.CRLTemplate{
		Issuer: caDN, ThisUpdate: time.Date(2025, 2, 1, 0, 0, 0, 0, time.UTC),
	}, caKey)
	net := revocation.NewNetwork()
	net.Publish(crafted, realCRL)
	net.Publish(stripped, attackerCRL)
	b.ResetTimer()
	var results []revocation.SpoofResult
	for i := 0; i < b.N; i++ {
		results = revocation.SpoofExperiment(net, ca, leafDER, crafted)
	}
	b.StopTimer()
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{r.Library.String(), r.Status.String(), fmt.Sprintf("%v", r.Subverted)})
	}
	printTable("§5.2 CRL spoofing", report.Table([]string{"Library", "Revocation status", "Subverted"}, rows))
}

// ——— Ablation: hostname-verification policy (CN fallback + C-string semantics) ———

func BenchmarkAblationHostVerifyPolicy(b *testing.B) {
	caKey, _ := x509cert.GenerateKey(813)
	der, err := x509cert.Build(&x509cert.Template{
		SerialNumber: big.NewInt(3),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "HV CA")),
		Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "x")),
		NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN:          []x509cert.GeneralName{x509cert.DNSName("victim.example\x00.attacker.site")},
	}, caKey, caKey)
	if err != nil {
		b.Fatal(err)
	}
	c, err := x509cert.Parse(der)
	if err != nil {
		b.Fatal(err)
	}
	var legacyOK, strictOK bool
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			legacyOK = hostverify.Verify(hostverify.Legacy, c, "victim.example") == nil
		}
	})
	b.Run("strict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strictOK = hostverify.Verify(hostverify.Strict, c, "victim.example") == nil
		}
	})
	printTable("Ablation: hostname verification policy", fmt.Sprintf(
		"NUL-truncation identity: legacy verifier accepts=%v, strict verifier accepts=%v\n", legacyOK, strictOK))
}

// ——— TLS wire observation throughput ———

func BenchmarkTLSWireObserve(b *testing.B) {
	m := sharedMeasurement(b)
	chain := [][]byte{m.Corpus.Entries[0].DER}
	ch := &tlswire.ClientHello{ServerName: "observed.example"}
	var wire bytes.Buffer
	if err := tlswire.WriteRecord(&wire, tlswire.Record{Type: tlswire.TypeHandshake, Version: tlswire.VersionTLS12, Payload: ch.Marshal()}); err != nil {
		b.Fatal(err)
	}
	certMsg, err := tlswire.MarshalCertificate(chain)
	if err != nil {
		b.Fatal(err)
	}
	if err := tlswire.WriteRecord(&wire, tlswire.Record{Type: tlswire.TypeHandshake, Version: tlswire.VersionTLS12, Payload: certMsg}); err != nil {
		b.Fatal(err)
	}
	raw := wire.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tlswire.Observe(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// ——— §5.1 impact (3): parse failures over the NC corpus ———

func BenchmarkParseFailureImpact(b *testing.B) {
	m := sharedMeasurement(b)
	var ncDER [][]byte
	for i, e := range m.Corpus.Entries {
		if m.Noncompliant(i) {
			ncDER = append(ncDER, e.DER)
		}
	}
	if len(ncDER) == 0 {
		b.Skip("no NC certificates in this draw")
	}
	// Add the §5.1 crafted cases that trigger strict-parser failures
	// (invalid PrintableString, malformed UTF-8, odd-length BMPString).
	gen, err := certgen.New(99)
	if err != nil {
		b.Fatal(err)
	}
	for _, probe := range []struct {
		tag int
		raw []byte
	}{
		{asn1der.TagPrintableString, []byte("Bad@Orgÿ")},
		{asn1der.TagUTF8String, []byte{'O', 0xC3, 0x28}},
		{asn1der.TagBMPString, []byte{0x00, 0x41, 0x42}},
	} {
		tc, err := gen.GenerateRaw(certgen.FieldSubjectOrganization, probe.tag, probe.raw)
		if err != nil {
			b.Fatal(err)
		}
		ncDER = append(ncDER, tc.DER)
	}
	parsers := tlsimpl.All()
	failures := make([]int, len(parsers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range failures {
			failures[j] = 0
		}
		for _, der := range ncDER {
			for j, p := range parsers {
				if _, err := p.Parse(der); err != nil {
					failures[j]++
				}
			}
		}
	}
	b.StopTimer()
	var rows [][]string
	for j, p := range parsers {
		rows = append(rows, []string{
			p.Library().String(),
			fmt.Sprintf("%d / %d", failures[j], len(ncDER)),
		})
	}
	printTable("§5.1 parse failures over NC corpus (TLS termination risk)", report.Table(
		[]string{"Library", "Complete parse failures"}, rows))
}
