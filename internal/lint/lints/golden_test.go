package lints

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/lint"
	"repro/internal/monitor"
	"repro/internal/raceflag"
	"repro/internal/report"
	"repro/internal/x509cert"
)

const verdictGoldenPath = "testdata/verdicts.golden"

// goldenCert is what the text-reading layers made of one certificate,
// compactly encoded so the paper-scale population fits in a few MB.
type goldenCert struct {
	verdicts []byte // per lint in registry order: status, uvarint len, details
	records  []byte // per index.FromCert record: Domain 0 Skeleton 0 Issuer '\n'
}

// TestVerdictGolden pins what every layer that reads certificate text
// makes of the seed-2025 paper-scale corpus (entries and precerts) plus
// every trigger certificate: each (certificate, lint, status, detail),
// each index.FromCert record's Domain, Skeleton and Issuer, and each key
// of every Table 6 monitor model, and what cmd/ctscan prints from the
// corpus entries' verdicts. The golden holds per-lint, record, per-model
// and per-table digests; a change to how any string is decoded, rendered
// or keyed, or to how a table folds the verdicts, moves a digest.
// Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/lint/lints -run VerdictGolden
//
// only when such a change is intended.
func TestVerdictGolden(t *testing.T) {
	if raceflag.Enabled {
		// The digests do not depend on the detector, which makes this
		// paper-scale pass take ~17 s instead of ~2.5 s.
		t.Skip("paper-scale golden skipped under -race")
	}
	ders, c, counts := goldenDERs(t)
	workers := min(runtime.GOMAXPROCS(0), 4)
	out := make([]goldenCert, len(ders))
	results := make([]*lint.CertResult, len(c.Entries))
	models := make([][]*monitor.Monitor, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range models {
		for _, caps := range monitor.Monitors() {
			models[w] = append(models[w], monitor.New(caps))
		}
		wg.Add(1)
		go func(mons []*monitor.Monitor) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ders); i = int(next.Add(1) - 1) {
				// The consumer's order: parse, lint, models, records.
				cert, err := x509cert.ParseWithMode(ders[i], x509cert.ParseLenient)
				if err != nil {
					errs <- fmt.Errorf("cert %d: %v", i, err)
					return
				}
				g := &out[i]
				res := lint.Global.Run(cert, lint.Options{})
				if i < len(results) {
					results[i] = res
				}
				for _, f := range res.Findings {
					g.verdicts = append(g.verdicts, byte(f.Status))
					details := res.Details(f)
					g.verdicts = binary.AppendUvarint(g.verdicts, uint64(len(details)))
					g.verdicts = append(g.verdicts, details...)
				}
				for _, m := range mons {
					m.Index(i, cert)
				}
				for _, r := range index.FromCert("golden", uint64(i), [32]byte{}, cert) {
					g.records = append(append(append(append(append(g.records,
						r.Domain...), 0), r.Skeleton...), 0), r.Issuer...)
					g.records = append(g.records, '\n')
				}
			}
		}(models[w])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got := goldenSummary(out, models, counts) +
		tableDigests(&corpus.Measurement{Corpus: c, Results: results})
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(verdictGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(verdictGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			g, w := "", ""
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("golden line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
		t.Fatal("verdict golden drift (regenerate with UPDATE_GOLDEN=1 only if the change is intended)")
	}
}

// goldenDERs returns the corpus entries, its precerts, then one
// certificate per trigger in lint-name order.
func goldenDERs(t *testing.T) ([][]byte, *corpus.Corpus, string) {
	t.Helper()
	cfg := corpus.DefaultConfig()
	g, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]*corpus.Slot, g.Slots())
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), 4); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(slots); i = int(next.Add(1) - 1) {
				var err error
				if slots[i], err = g.GenerateSlot(i); err != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		t.Fatal("corpus generation failed")
	}
	c := g.Assemble(slots)
	var ders [][]byte
	for _, e := range append(c.Entries, c.Precerts...) {
		ders = append(ders, e.DER)
	}
	names := make([]string, 0, len(triggers))
	for name := range triggers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ders = append(ders, triggerDER(t, triggers[name]))
	}
	return ders, c, fmt.Sprintf("certs %d: corpus seed %d size %d, %d precerts, %d triggers",
		len(ders), cfg.Seed, len(c.Entries), len(c.Precerts), len(names))
}

// goldenSummary folds the per-certificate outputs, in certificate
// order, into one line per lint, one for the records and one per
// monitor model. Each digest is the first 16 hex digits of a SHA-256.
func goldenSummary(out []goldenCert, models [][]*monitor.Monitor, counts string) string {
	lints := lint.Global.All()
	type tally struct {
		h hash.Hash
		n [lint.Fail + 1]int
	}
	per := make([]tally, len(lints))
	for j := range per {
		per[j].h = sha256.New()
	}
	records, nrec := sha256.New(), 0
	var idx [binary.MaxVarintLen64]byte
	for i, g := range out {
		id := idx[:binary.PutUvarint(idx[:], uint64(i))]
		b := g.verdicts
		for j := range lints {
			st := b[0]
			n, k := binary.Uvarint(b[1:])
			details := b[1+k : 1+k+int(n)]
			b = b[1+k+int(n):]
			per[j].n[st]++
			per[j].h.Write(id)
			per[j].h.Write([]byte{st})
			per[j].h.Write(details)
			per[j].h.Write([]byte{0})
		}
		records.Write(id)
		records.Write(g.records)
		nrec += strings.Count(string(g.records), "\n")
	}
	var sb strings.Builder
	fmt.Fprintln(&sb, counts)
	for j, l := range lints {
		n := per[j].n
		fmt.Fprintf(&sb, "lint %s pass=%d fail=%d na=%d ne=%d %x\n",
			l.Name, n[lint.Pass], n[lint.Fail], n[lint.NA], n[lint.NE], per[j].h.Sum(nil)[:8])
	}
	fmt.Fprintf(&sb, "records %d %x\n", nrec, records.Sum(nil)[:8])
	for k := range models[0] {
		keys := map[string]bool{}
		for _, mons := range models {
			for _, key := range mons[k].Keys() {
				keys[key] = true
			}
		}
		sorted := make([]string, 0, len(keys))
		for key := range keys {
			sorted = append(sorted, key)
		}
		sort.Strings(sorted)
		h := sha256.New()
		for _, key := range sorted {
			h.Write([]byte(key))
			h.Write([]byte{0})
		}
		fmt.Fprintf(&sb, "model %s keys=%d %x\n", models[0][k].Caps.Name, len(sorted), h.Sum(nil)[:8])
	}
	return sb.String()
}

// tableDigests renders what cmd/ctscan prints from a measurement (its
// corpus line, Tables 1, 2, 3 and 11 and Figures 2, 3 and 4) and digests
// each output.
func tableDigests(m *corpus.Measurement) string {
	nc := m.NCCount()
	figure3 := map[string][]int{
		"IDNCert":      m.ValidityCDF(func(i int, e *corpus.Entry) bool { return e.Class == corpus.ClassIDNCert }),
		"OtherUnicert": m.ValidityCDF(func(i int, e *corpus.Entry) bool { return e.Class == corpus.ClassOtherUnicert }),
		"Noncompliant": m.ValidityCDF(func(i int, e *corpus.Entry) bool { return m.Noncompliant(i) }),
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "measurement %d entries, %d noncompliant\n", len(m.Corpus.Entries), nc)
	for _, out := range []struct{ name, text string }{
		{"table 1", report.Table1(m.Table1(lint.Global), nc)},
		{"table 2", report.Table2(m.Table2(10))},
		{"table 3", report.Table3(m.Table3())},
		{"table 11", report.Table11(m.Table11(25))},
		{"figure 2", report.Figure2(m.Figure2())},
		{"figure 3", report.Figure3(figure3)},
		{"figure 4", report.Figure4(m.Figure4(50))},
	} {
		sum := sha256.Sum256([]byte(out.text))
		fmt.Fprintf(&sb, "%s lines=%d %x\n", out.name, strings.Count(out.text, "\n"), sum[:8])
	}
	return sb.String()
}
