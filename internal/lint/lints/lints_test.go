package lints

import (
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/asn1der"
	"repro/internal/lint"
	"repro/internal/raceflag"
	"repro/internal/strenc"
	"repro/internal/x509cert"
)

// Table 1 lint-count invariants: 95 lints total, 50 new, with the
// per-taxonomy breakdown the paper reports.
func TestRegistryCounts(t *testing.T) {
	all := lint.Global.All()
	if len(all) != 95 {
		t.Errorf("registry has %d lints, want 95", len(all))
	}
	newCount := 0
	byTax := make(map[lint.Taxonomy]int)
	newByTax := make(map[lint.Taxonomy]int)
	for _, l := range all {
		byTax[l.Taxonomy]++
		if l.New {
			newCount++
			newByTax[l.Taxonomy]++
		}
	}
	if newCount != 50 {
		t.Errorf("%d new lints, want 50", newCount)
	}
	want := map[lint.Taxonomy][2]int{ // total, new
		lint.T1InvalidCharacter: {22, 10},
		lint.T2BadNormalization: {4, 3},
		lint.T3IllegalFormat:    {17, 0},
		lint.T3InvalidEncoding:  {48, 37},
		lint.T3InvalidStructure: {2, 0},
		lint.T3DiscouragedField: {2, 0},
	}
	for tax, counts := range want {
		if byTax[tax] != counts[0] {
			t.Errorf("%s: %d lints, want %d", tax, byTax[tax], counts[0])
		}
		if newByTax[tax] != counts[1] {
			t.Errorf("%s: %d new lints, want %d", tax, newByTax[tax], counts[1])
		}
	}
}

func TestLintNamingConvention(t *testing.T) {
	for _, l := range lint.Global.All() {
		switch {
		case strings.HasPrefix(l.Name, "e_"):
			if l.Severity != lint.Error {
				t.Errorf("%s: e_ prefix but severity %s", l.Name, l.Severity)
			}
		case strings.HasPrefix(l.Name, "w_"):
			// The paper keeps w_cab_subject_common_name_not_in_san at
			// error severity despite its legacy name.
			if l.Severity != lint.Warning && l.Name != "w_cab_subject_common_name_not_in_san" {
				t.Errorf("%s: w_ prefix but severity %s", l.Name, l.Severity)
			}
		default:
			t.Errorf("%s: name must start with e_ or w_", l.Name)
		}
		if l.EffectiveDate.IsZero() {
			t.Errorf("%s: missing effective date", l.Name)
		}
		if l.Description == "" {
			t.Errorf("%s: missing description", l.Name)
		}
	}
}

var (
	lintCAKey, _   = x509cert.GenerateKey(7)
	lintLeafKey, _ = x509cert.GenerateKey(8)
)

func buildCert(t *testing.T, mutate func(*x509cert.Template)) *x509cert.Certificate {
	t.Helper()
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(99),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Lint Test CA")),
		Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "test.com")),
		NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN:          []x509cert.GeneralName{x509cert.DNSName("test.com")},
	}
	if mutate != nil {
		mutate(tpl)
	}
	der, err := x509cert.Build(tpl, lintCAKey, lintLeafKey)
	if err != nil {
		t.Fatal(err)
	}
	c, err := x509cert.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runOne(t *testing.T, name string, c *x509cert.Certificate) lint.Status {
	t.Helper()
	l, ok := lint.Global.ByName(name)
	if !ok {
		t.Fatalf("lint %s not registered", name)
	}
	res := lint.Global.Run(c, lint.Options{Only: map[string]bool{name: true}})
	for _, f := range res.Findings {
		if res.Lint(f) == l {
			return f.Status
		}
	}
	t.Fatalf("no finding for %s", name)
	return lint.NA
}

func TestCompliantCertificatePasses(t *testing.T) {
	c := buildCert(t, nil)
	res := lint.Global.Run(c, lint.Options{})
	for _, f := range res.Failed() {
		t.Errorf("compliant certificate fails %s: %s", f.Lint.Name, f.Details)
	}
}

func TestT1ControlCharsInSubject(t *testing.T) {
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(
			x509cert.TextATV(x509cert.OIDCommonName, "test.com"),
			x509cert.TextATV(x509cert.OIDOrganizationName, "Evil\x00Org"),
		)
	})
	if got := runOne(t, "e_rfc_subject_dn_not_printable_characters", c); got != lint.Fail {
		t.Errorf("NUL in O: %s", got)
	}
}

func TestT1PrintableBadAlpha(t *testing.T) {
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(
			x509cert.PrintableATV(x509cert.OIDCommonName, "test.com"),
			x509cert.RawATV(x509cert.OIDOrganizationName, asn1der.TagPrintableString, []byte("Caf\xE9")),
		)
	})
	if got := runOne(t, "e_rfc_subject_printable_string_badalpha", c); got != lint.Fail {
		t.Errorf("0xE9 in PrintableString: %s", got)
	}
}

func TestT1MalformedIDN(t *testing.T) {
	// Undecodable punycode.
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.SAN = []x509cert.GeneralName{x509cert.DNSName("xn--" + strings.Repeat("9", 40) + ".com")}
	})
	if got := runOne(t, "e_rfc_dns_idn_malformed_unicode", c); got != lint.Fail {
		t.Errorf("unconvertible A-label: %s", got)
	}
	// Decodable but with a disallowed character (LRM) — the new lint.
	c2 := buildCert(t, func(tpl *x509cert.Template) {
		tpl.SAN = []x509cert.GeneralName{x509cert.DNSName("xn--www-hn0a.com")}
	})
	if got := runOne(t, "e_rfc_dns_idn_a2u_unpermitted_unichar", c2); got != lint.Fail {
		t.Errorf("LRM-bearing A-label: %s", got)
	}
	if got := runOne(t, "e_rfc_dns_idn_malformed_unicode", c2); got != lint.Fail {
		t.Logf("decodable label correctly passes malformed_unicode: %s", got)
	}
}

func TestT1BidiControls(t *testing.T) {
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "www.‮lapyap‬.com"))
	})
	if got := runOne(t, "e_subject_dn_contains_bidi_controls", c); got != lint.Fail {
		t.Errorf("RLO in CN: %s", got)
	}
}

func TestT2NotNFC(t *testing.T) {
	// Punycode of a decomposed "ü" label: u + combining diaeresis.
	decomposed := "bücher"
	alabel, err := encodeALabel(decomposed)
	if err != nil {
		t.Fatal(err)
	}
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.SAN = []x509cert.GeneralName{x509cert.DNSName(alabel + ".example")}
	})
	if got := runOne(t, "e_rfc_dns_idn_not_nfc_after_conversion", c); got != lint.Fail {
		t.Errorf("non-NFC U-label: %s", got)
	}
	// Subject UTF8String not NFC.
	c2 := buildCert(t, func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDOrganizationName, "Städtwerke"))
	})
	if got := runOne(t, "w_subject_utf8_not_nfc", c2); got != lint.Fail {
		t.Errorf("decomposed subject: %s", got)
	}
}

func TestT3CountryFormat(t *testing.T) {
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(
			x509cert.TextATV(x509cert.OIDCommonName, "test.com"),
			x509cert.PrintableATV(x509cert.OIDCountryName, "Germany"),
		)
	})
	if got := runOne(t, "e_subject_country_not_iso", c); got != lint.Fail {
		t.Errorf("'Germany' as country: %s", got)
	}
	c2 := buildCert(t, func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(
			x509cert.TextATV(x509cert.OIDCommonName, "test.com"),
			x509cert.PrintableATV(x509cert.OIDCountryName, "de"),
		)
	})
	if got := runOne(t, "e_subject_country_not_uppercase", c2); got != lint.Fail {
		t.Errorf("'de' as country: %s", got)
	}
}

func TestT3ExplicitTextEncoding(t *testing.T) {
	mk := func(tag int, text string) *x509cert.Certificate {
		return buildCert(t, func(tpl *x509cert.Template) {
			content := strenc.EncodeUnchecked(strenc.StringType(tag).StandardMethod(), text)
			tpl.Policies = []x509cert.PolicyInformation{{
				Policy:       asn1der.OID{2, 23, 140, 1, 2, 2},
				ExplicitText: []x509cert.DisplayText{{Tag: tag, Bytes: content}},
			}}
		})
	}
	if got := runOne(t, "w_rfc_ext_cp_explicit_text_not_utf8", mk(asn1der.TagVisibleString, "legal notice")); got != lint.Fail {
		t.Errorf("VisibleString explicitText: %s", got)
	}
	if got := runOne(t, "e_rfc_ext_cp_explicit_text_ia5", mk(asn1der.TagIA5String, "legal notice")); got != lint.Fail {
		t.Errorf("IA5String explicitText: %s", got)
	}
	if got := runOne(t, "e_ext_cp_explicit_text_bmp", mk(asn1der.TagBMPString, "notice")); got != lint.Fail {
		t.Errorf("BMPString explicitText: %s", got)
	}
	if got := runOne(t, "w_rfc_ext_cp_explicit_text_not_utf8", mk(asn1der.TagUTF8String, "notice")); got != lint.Pass {
		t.Errorf("UTF8String explicitText should pass: %s", got)
	}
}

func TestT3EncodingPerAttribute(t *testing.T) {
	c := buildCert(t, func(tpl *x509cert.Template) {
		content := strenc.EncodeUnchecked(strenc.UCS2, "株式会社")
		tpl.Subject = x509cert.SimpleDN(
			x509cert.TextATV(x509cert.OIDCommonName, "test.com"),
			x509cert.RawATV(x509cert.OIDOrganizationName, asn1der.TagBMPString, content),
		)
	})
	if got := runOne(t, "e_subject_organization_not_printable_or_utf8", c); got != lint.Fail {
		t.Errorf("BMPString O: %s", got)
	}
	if got := runOne(t, "w_subject_dn_uses_bmpstring", c); got != lint.Fail {
		t.Errorf("deprecated BMPString: %s", got)
	}
}

func TestT3StructureCNNotInSAN(t *testing.T) {
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "other.com"))
	})
	if got := runOne(t, "w_cab_subject_common_name_not_in_san", c); got != lint.Fail {
		t.Errorf("CN not in SAN: %s", got)
	}
}

func TestT3DuplicateCN(t *testing.T) {
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(
			x509cert.TextATV(x509cert.OIDCommonName, "test.com"),
			x509cert.TextATV(x509cert.OIDCommonName, "evil.com"),
		)
	})
	if got := runOne(t, "e_subject_duplicate_attribute", c); got != lint.Fail {
		t.Errorf("duplicate CN: %s", got)
	}
	if got := runOne(t, "w_cab_subject_contain_extra_common_name", c); got != lint.Fail {
		t.Errorf("extra CN: %s", got)
	}
}

func TestEffectiveDateGating(t *testing.T) {
	// An RFC 9598 violation in a 2020 certificate is NE with dates on,
	// Fail with dates ignored — the ablation of footnote 4.
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.NotBefore = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
		tpl.NotAfter = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
		tpl.SAN = append(tpl.SAN, x509cert.GeneralName{Kind: x509cert.GNRFC822Name, Bytes: []byte("usér@test.com")})
	})
	name := "e_san_email_smtputf8_required"
	if got := runOne(t, name, c); got != lint.NE {
		t.Errorf("2020 cert should be NE for RFC9598 lint: %s", got)
	}
	l, _ := lint.Global.ByName(name)
	res := lint.Global.Run(c, lint.Options{IgnoreEffectiveDates: true, Only: map[string]bool{name: true}})
	for _, f := range res.Findings {
		if res.Lint(f) == l && f.Status != lint.Fail {
			t.Errorf("dates ignored: %s", f.Status)
		}
	}
}

func TestSmtpUTF8Required(t *testing.T) {
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.SAN = append(tpl.SAN, x509cert.GeneralName{Kind: x509cert.GNRFC822Name, Bytes: []byte("us\xC3\xA9r@test.com")})
	})
	if got := runOne(t, "e_san_email_smtputf8_required", c); got != lint.Fail {
		t.Errorf("non-ASCII local part: %s", got)
	}
}

func TestCertResultAggregation(t *testing.T) {
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDOrganizationName, "Bad\x00Org"))
	})
	res := lint.Global.Run(c, lint.Options{})
	var hasError, hasT1 bool
	for _, f := range res.Failed() {
		hasError = hasError || f.Lint.Severity == lint.Error
		hasT1 = hasT1 || f.Lint.Taxonomy == lint.T1InvalidCharacter
	}
	if !res.Noncompliant() || !hasError {
		t.Fatal("NUL-bearing certificate must be noncompliant with errors")
	}
	if !hasT1 {
		t.Fatal("taxonomy must include T1")
	}
}

// TestGlobalLintDERAndPEM lints raw DER and a PEM bundle the way the
// command-line tools do: lenient parse, then the global registry.
func TestGlobalLintDERAndPEM(t *testing.T) {
	c := buildCert(t, func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDOrganizationName, "Bad\x00Org"))
	})
	lintDER := func(der []byte) *lint.CertResult {
		t.Helper()
		cert, err := x509cert.ParseWithMode(der, x509cert.ParseLenient)
		if err != nil {
			t.Fatal(err)
		}
		return lint.Global.Run(cert, lint.Options{})
	}
	if !lintDER(c.Raw).Noncompliant() {
		t.Fatal("NUL-bearing certificate must be noncompliant")
	}
	ders, err := x509cert.DecodePEM(x509cert.EncodePEM(c.Raw))
	if err != nil || len(ders) != 1 || !lintDER(ders[0]).Noncompliant() {
		t.Fatalf("PEM lint: %d certificates, %v", len(ders), err)
	}
}

// encodeALabel produces the xn-- form of a possibly non-NFC label
// without normalizing, mirroring what a careless CA does.
func encodeALabel(label string) (string, error) {
	return punycodeEncode(label)
}

// TestLabelLintsAllocateNothing: once a certificate's text view is
// built, the DNS label lints read its labels in place and encode
// A-labels into stack buffers, so a passing run allocates nothing.
func TestLabelLintsAllocateNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	c, err := x509cert.Parse(triggerDER(t, san("xn--bcher-kva.test.com", "WWW.xn--fiqs8s.Test.COM.", "a-b.xn--p1ai")))
	if err != nil {
		t.Fatal(err)
	}
	for name := range nearMisses {
		l, _ := lint.Global.ByName(name)
		if !l.CheckApplies(c) || l.Run(c).Status != lint.Pass {
			t.Fatalf("%s does not pass on the IDN certificate", name)
		}
		if n := testing.AllocsPerRun(100, func() { l.Run(c) }); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}
