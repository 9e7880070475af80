// Quickstart: build a certificate with internationalized content, lint
// it against the 95 Unicert rules, and print what a careless issuer
// got wrong.
package main

import (
	"fmt"
	"log"
	"math/big"
	"time"

	"repro/internal/asn1der"
	"repro/internal/lint"
	_ "repro/internal/lint/lints" // register the 95 Unicert lints
	"repro/internal/strenc"
	"repro/internal/x509cert"
)

func main() {
	// 1. Keys (deterministic for the example).
	caKey, err := x509cert.GenerateKey(1)
	if err != nil {
		log.Fatal(err)
	}
	leafKey, err := x509cert.GenerateKey(2)
	if err != nil {
		log.Fatal(err)
	}

	// 2. A Unicert with three classic mistakes: a BMPString-encoded
	// organization (T3 invalid encoding), a deceptive IDN SAN whose
	// decoded form carries a left-to-right mark (T1 invalid character),
	// and a VisibleString policy notice (the paper's most common lint).
	org, _ := strenc.Encode(strenc.UCS2, "株式会社 中国銀行")
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(42),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Quickstart CA")),
		Subject: x509cert.SimpleDN(
			x509cert.TextATV(x509cert.OIDCommonName, "xn--www-hn0a.bank.example"),
			x509cert.RawATV(x509cert.OIDOrganizationName, asn1der.TagBMPString, org),
		),
		NotBefore: time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC),
		SAN:       []x509cert.GeneralName{x509cert.DNSName("xn--www-hn0a.bank.example")},
		Policies: []x509cert.PolicyInformation{{
			Policy:       asn1der.OID{2, 23, 140, 1, 2, 2},
			ExplicitText: []x509cert.DisplayText{{Tag: asn1der.TagVisibleString, Bytes: []byte("Relying party agreement")}},
		}},
	}
	der, err := x509cert.Build(tpl, caKey, leafKey)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Parse it the way a linter must (leniently) and lint it.
	cert, err := x509cert.ParseWithMode(der, x509cert.ParseLenient)
	if err != nil {
		log.Fatal(err)
	}
	res := lint.Global.Run(cert, lint.Options{})
	fmt.Printf("certificate is noncompliant: %v\n", res.Noncompliant())
	for _, f := range res.Failed() {
		fmt.Printf("  [%s/%s] %s: %s\n", f.Lint.Taxonomy.Group(), f.Lint.Severity, f.Lint.Name, f.Details)
	}

	// 4. Show why the SAN is dangerous: its U-label form.
	for _, name := range cert.DNSNames() {
		fmt.Printf("SAN %q — syntactically valid Punycode, deceptive after conversion\n", name)
	}
}
