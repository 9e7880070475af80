// Command unilint is the released Unicert linter of §7: it lints PEM
// or DER certificates against the 95 Unicode/IDN constraint rules and
// prints per-lint findings.
//
// Usage:
//
//	unilint [-all-dates] [-quiet] [-workers N] cert.pem [cert2.pem ...]
//	unilint -list
//	unilint -demo
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/asn1der"
	"repro/internal/lint"
	_ "repro/internal/lint/lints" // register the 95 Unicert lints
	"repro/internal/pipeline"
	"repro/internal/x509cert"
)

func main() {
	listLints := flag.Bool("list", false, "list the registered lints and exit")
	allDates := flag.Bool("all-dates", false, "ignore lint effective dates (apply every rule retroactively)")
	quiet := flag.Bool("quiet", false, "print only failing lints")
	demo := flag.Bool("demo", false, "lint a built-in noncompliant demo certificate")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	workers := flag.Int("workers", 0, "lint workers for multi-certificate inputs (0 = NumCPU)")
	flag.Parse()

	if *listLints {
		for _, l := range lint.Global.All() {
			marker := " "
			if l.New {
				marker = "N"
			}
			fmt.Printf("%-60s %s %-8s %-18s %s\n", l.Name, marker, l.Severity, l.Taxonomy, l.Source)
		}
		return
	}
	opts := lint.Options{IgnoreEffectiveDates: *allDates}

	var inputs [][]byte
	if *demo {
		inputs = append(inputs, demoCert())
	}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal("read %s: %v", path, err)
		}
		if ders, err := x509cert.DecodePEM(data); err == nil {
			inputs = append(inputs, ders...)
		} else {
			inputs = append(inputs, data)
		}
	}
	if len(inputs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: unilint [-all-dates] [-quiet] cert.pem …  (or -demo, -list)")
		os.Exit(2)
	}

	exit := 0
	type jsonFinding struct {
		Certificate int    `json:"certificate"`
		Subject     string `json:"subject"`
		Lint        string `json:"lint"`
		Severity    string `json:"severity"`
		Taxonomy    string `json:"taxonomy"`
		Details     string `json:"details"`
	}
	var jsonFindings []jsonFinding
	results, err := pipeline.LintDERs(context.Background(), inputs, lint.Global, opts, pipeline.Config{Workers: *workers})
	if err != nil {
		fatal("%v", err)
	}
	for i, der := range inputs {
		res := results[i]
		cert, _ := x509cert.ParseWithMode(der, x509cert.ParseLenient)
		if *jsonOut {
			for _, f := range res.Failed() {
				exit = 1
				jsonFindings = append(jsonFindings, jsonFinding{
					Certificate: i,
					Subject:     cert.Subject.String(),
					Lint:        f.Lint.Name,
					Severity:    f.Lint.Severity.String(),
					Taxonomy:    f.Lint.Taxonomy.String(),
					Details:     f.Details,
				})
			}
			continue
		}
		fmt.Printf("== certificate %d: subject=%s serial=%v\n", i, cert.Subject, cert.SerialNumber)
		for _, f := range res.Findings {
			switch l := res.Lint(f); f.Status {
			case lint.Fail:
				fmt.Printf("   FAIL  %-8s %-55s %s\n", l.Severity, l.Name, res.Details(f))
				exit = 1
			case lint.Pass:
				if !*quiet {
					fmt.Printf("   pass  %-8s %s\n", l.Severity, l.Name)
				}
			}
		}
		if !res.Noncompliant() {
			fmt.Println("   compliant")
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonFindings); err != nil {
			fatal("%v", err)
		}
	}
	os.Exit(exit)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "unilint: "+format+"\n", args...)
	os.Exit(1)
}

// demoCert builds a certificate exhibiting several of the paper's
// noncompliance types at once.
func demoCert() []byte {
	caKey, err := x509cert.GenerateKey(1001)
	if err != nil {
		fatal("%v", err)
	}
	leafKey, err := x509cert.GenerateKey(1002)
	if err != nil {
		fatal("%v", err)
	}
	tpl := &x509cert.Template{
		SerialNumber: x509cert.NewSerial(7),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Demo CA")),
		Subject: x509cert.SimpleDN(
			x509cert.TextATV(x509cert.OIDCommonName, "demo.example"),
			x509cert.TextATV(x509cert.OIDOrganizationName, "Evil\x00 Entity"),
			x509cert.PrintableATV(x509cert.OIDCountryName, "Germany"),
		),
		NotBefore: mustTime("2025-01-01"),
		NotAfter:  mustTime("2027-06-01"),
		SAN:       []x509cert.GeneralName{x509cert.DNSName("xn--www-hn0a.demo.example")},
		Policies: []x509cert.PolicyInformation{{
			Policy:       asn1der.OID{2, 23, 140, 1, 2, 2},
			ExplicitText: []x509cert.DisplayText{{Tag: asn1der.TagVisibleString, Bytes: []byte("demo notice")}},
		}},
	}
	der, err := x509cert.Build(tpl, caKey, leafKey)
	if err != nil {
		fatal("%v", err)
	}
	return der
}

func mustTime(s string) time.Time {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		fatal("%v", err)
	}
	return t
}
