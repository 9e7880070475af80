package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/corpus"
	"repro/internal/lint"
	"repro/internal/pipeline"
	"repro/internal/x509cert"
)

// batchInputs is the batch-lint workload's pre-generated dataset: the
// corpus share and its raw DERs. Generation is set-up, never part of a
// timed pass — the "generator-dominated" trap of the old E2E numbers.
type batchInputs struct {
	corpus    *corpus.Corpus
	ders      [][]byte
	derBytes  int
	generateS float64
}

func buildBatchInputs(seed int64, certs int) (*batchInputs, error) {
	t0 := time.Now()
	c, err := generateCorpus(seed, certs)
	if err != nil {
		return nil, err
	}
	in := &batchInputs{corpus: c, ders: make([][]byte, len(c.Entries))}
	for i, e := range c.Entries {
		in.ders[i] = e.DER
		in.derBytes += len(e.DER)
	}
	in.generateS = time.Since(t0).Seconds()
	return in, nil
}

// batchTables is what one pass hands the researcher: the linted
// measurement and the tables aggregated from it.
type batchTables struct {
	measurement  *corpus.Measurement
	noncompliant int
	findings     int // failed lint findings across all certificates
	table1       []corpus.TaxonomyRow
	table2       []corpus.IssuerRow
	table11      []corpus.LintRow
	figure2      []corpus.YearRow
}

// pass runs the paper's RQ1 batch path once — parse + lint every DER
// across workers, then aggregate the tables — and returns the tables,
// the whole pass's wall seconds and the aggregation's share of it.
func (in *batchInputs) pass(ctx context.Context, workers int) (t *batchTables, wallS, tablesS float64, err error) {
	start := time.Now()
	results, err := pipeline.LintDERs(ctx, in.ders, lint.Global, lint.Options{}, pipeline.Config{Workers: workers})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("LintDERs: %w", err)
	}
	linted := time.Now()
	t = aggregate(&corpus.Measurement{Corpus: in.corpus, Results: results})
	end := time.Now()
	return t, end.Sub(start).Seconds(), end.Sub(linted).Seconds(), nil
}

func aggregate(m *corpus.Measurement) *batchTables {
	findings := 0
	for _, res := range m.Results {
		for i := range res.Findings {
			if res.Findings[i].Status == lint.Fail {
				findings++
			}
		}
	}
	return &batchTables{
		measurement:  m,
		findings:     findings,
		noncompliant: m.NCCount(),
		table1:       m.Table1(lint.Global),
		table2:       m.Table2(10),
		table11:      m.Table11(10),
		figure2:      m.Figure2(),
	}
}

// reference is the one-off sequential oracle: corpus.RunLinter over the
// certificates the generator parsed.
func (in *batchInputs) reference() *batchTables {
	return aggregate(corpus.RunLinter(in.corpus, lint.Global, lint.Options{}))
}

// check compares a pass against the reference: certificates whose
// verdict differs, plus one for a Table 1 that does not match.
func (t *batchTables) check(v *checks, ref *batchTables, certs int) {
	v.attempted += int64(certs)
	v.fail(abs(t.noncompliant-ref.noncompliant), "batch-lint: %d noncompliant, reference %d", t.noncompliant, ref.noncompliant)
	if !reflect.DeepEqual(t.table1, ref.table1) {
		v.fail(1, "batch-lint: Table 1 differs from the sequential reference")
	}
}

// perCert parses and lints every DER on one goroutine with a clock read
// between the two steps, and returns the parse and lint sums in
// seconds. It parses with ParseLint, as LintDERs does.
func (in *batchInputs) perCert() (parseS, lintS float64, parseErrors int) {
	var parseNS, lintNS int64
	for _, der := range in.ders {
		t0 := time.Now()
		cert, err := x509cert.ParseLint(der, x509cert.ParseLenient)
		t1 := time.Now()
		parseNS += t1.Sub(t0).Nanoseconds()
		if err != nil {
			parseErrors++
			continue
		}
		lint.Global.Run(cert, lint.Options{})
		lintNS += time.Since(t1).Nanoseconds()
	}
	return float64(parseNS) / 1e9, float64(lintNS) / 1e9, parseErrors
}
