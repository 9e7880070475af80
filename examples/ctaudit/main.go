// ctaudit: run a compact version of the paper's RQ1 measurement — log
// a synthetic Unicert population into the CT substrate (with
// precertificates), verify an inclusion proof, filter precerts the way
// §4.1 does, lint what remains, and print the taxonomy.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/corpus"
	"repro/internal/ctlog"
	"repro/internal/lint"
	_ "repro/internal/lint/lints" // register the 95 Unicert lints
	"repro/internal/report"
)

func main() {
	// Generate a 1:10000-scale corpus (3,480 Unicerts).
	cfg := corpus.Config{Size: 3480, Seed: 2025, PrecertFraction: 0.10, VariantFraction: 0.004}
	c, err := corpus.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Submit everything — precertificates included — to a CT log.
	ctLog, err := ctlog.NewLog(99)
	if err != nil {
		log.Fatal(err)
	}
	ctLog.SetClock(func() time.Time { return time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC) })
	for _, e := range c.Entries {
		if _, err := ctLog.AddParsed(e.DER, false); err != nil {
			log.Fatal(err)
		}
	}
	for _, p := range c.Precerts {
		if _, err := ctLog.AddParsed(p.DER, true); err != nil {
			log.Fatal(err)
		}
	}
	sth, err := ctLog.STH()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CT log: %d entries, tree head %x…\n", sth.Size, sth.Root[:8])

	// Spot-check log integrity with an inclusion proof.
	proof, err := ctLog.ProveInclusion(0)
	if err != nil {
		log.Fatal(err)
	}
	entries, _ := ctLog.GetEntries(0, 1)
	ok := ctlog.VerifyInclusion(ctlog.LeafHash(entries[0].DER), 0, sth.Size, proof, sth.Root)
	fmt.Printf("inclusion proof for entry 0 verifies: %v\n", ok)

	// §4.1 filter: drop precertificates, keep leaf Unicerts.
	regular := ctLog.RegularCertificates()
	fmt.Printf("precert filter: %d of %d entries remain\n\n", len(regular), sth.Size)

	// Lint the population and print the headline tables.
	m := corpus.RunLinter(c, lint.Global, lint.Options{})
	nc := m.NCCount()
	fmt.Printf("noncompliant: %d of %d (%s)\n\n", nc, len(c.Entries), report.Percent(nc, len(c.Entries)))
	fmt.Println(report.Table1(m.Table1(lint.Global), nc))
	fmt.Println(report.Table2(m.Table2(10)))
}
