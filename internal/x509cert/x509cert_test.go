package x509cert

import (
	"bytes"
	"crypto/x509"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/asn1der"
	"repro/internal/strenc"
)

var (
	testCAKey, _   = GenerateKey(1)
	testLeafKey, _ = GenerateKey(2)
)

func baseTemplate() *Template {
	return &Template{
		SerialNumber: big.NewInt(12345),
		Issuer:       SimpleDN(TextATV(OIDOrganizationName, "Test CA Org"), TextATV(OIDCommonName, "Test CA")),
		Subject:      SimpleDN(TextATV(OIDCommonName, "test.com")),
		NotBefore:    time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN:          []GeneralName{DNSName("test.com"), DNSName("www.test.com")},
	}
}

func buildLeaf(t *testing.T, tpl *Template) *Certificate {
	t.Helper()
	der, err := Build(tpl, testCAKey, testLeafKey)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildParseRoundTrip(t *testing.T) {
	c := buildLeaf(t, baseTemplate())
	if c.Version != 3 {
		t.Errorf("version %d", c.Version)
	}
	if c.SerialNumber.Int64() != 12345 {
		t.Errorf("serial %v", c.SerialNumber)
	}
	if got := c.Subject.CommonName(); got != "test.com" {
		t.Errorf("CN %q", got)
	}
	if got := c.Issuer.First(OIDOrganizationName); got != "Test CA Org" {
		t.Errorf("issuer O %q", got)
	}
	if len(c.DNSNames()) != 2 || c.DNSNames()[0] != "test.com" {
		t.Errorf("SAN %v", c.DNSNames())
	}
	if c.ValidityDays() != 91 {
		t.Errorf("validity %d days", c.ValidityDays())
	}
}

func TestInteropWithCryptoX509(t *testing.T) {
	// Our DER must be parseable by the standard library — the strongest
	// available correctness oracle for the encoder.
	tpl := baseTemplate()
	der, err := Build(tpl, testCAKey, testLeafKey)
	if err != nil {
		t.Fatal(err)
	}
	std, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatalf("crypto/x509 rejected our encoding: %v", err)
	}
	if std.Subject.CommonName != "test.com" {
		t.Errorf("stdlib CN %q", std.Subject.CommonName)
	}
	if len(std.DNSNames) != 2 {
		t.Errorf("stdlib SANs %v", std.DNSNames)
	}
	if std.SerialNumber.Int64() != 12345 {
		t.Errorf("stdlib serial %v", std.SerialNumber)
	}
}

func TestSignatureVerification(t *testing.T) {
	caT := &Template{
		SerialNumber: big.NewInt(1),
		Issuer:       SimpleDN(TextATV(OIDCommonName, "Root")),
		Subject:      SimpleDN(TextATV(OIDCommonName, "Root")),
		NotBefore:    time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC),
		IsCA:         true,
	}
	caDER, err := BuildSelfSigned(caT, testCAKey)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := Parse(caDER)
	if err != nil {
		t.Fatal(err)
	}
	if !ca.IsCA {
		t.Fatal("CA flag lost")
	}
	leaf := buildLeaf(t, baseTemplate())
	if !VerifySignature(ca, leaf) {
		t.Fatal("leaf signature must verify against CA key")
	}
	if err := Chain([]*Certificate{leaf, ca}); err != nil {
		t.Fatalf("chain: %v", err)
	}
	// Tampered TBS must fail.
	bad := *leaf
	bad.RawTBS = append([]byte(nil), leaf.RawTBS...)
	bad.RawTBS[len(bad.RawTBS)-1] ^= 0xFF
	if VerifySignature(ca, &bad) {
		t.Fatal("tampered certificate must not verify")
	}
}

func TestNoncompliantAttributeSurvivesRoundTrip(t *testing.T) {
	// A PrintableString carrying NUL and 0xFF bytes — the T1 invalid
	// character case — must round trip byte-exactly.
	raw := []byte{'E', 'v', 'i', 'l', 0x00, 0xFF, 'C', 'o'}
	tpl := baseTemplate()
	tpl.Subject = SimpleDN(RawATV(OIDOrganizationName, asn1der.TagPrintableString, raw))
	c := buildLeaf(t, tpl)
	atvs := c.Subject.Attributes()
	if len(atvs) != 1 {
		t.Fatalf("attrs %d", len(atvs))
	}
	if atvs[0].Value.Tag != asn1der.TagPrintableString {
		t.Errorf("tag %d", atvs[0].Value.Tag)
	}
	if !bytes.Equal(atvs[0].Value.Bytes, raw) {
		t.Errorf("bytes % X", atvs[0].Value.Bytes)
	}
}

func TestBMPStringAttribute(t *testing.T) {
	content, err := strenc.Encode(strenc.UCS2, "株式会社")
	if err != nil {
		t.Fatal(err)
	}
	tpl := baseTemplate()
	tpl.Subject = SimpleDN(RawATV(OIDCommonName, asn1der.TagBMPString, content))
	c := buildLeaf(t, tpl)
	got := c.Subject.CommonName()
	if got != "株式会社" {
		t.Errorf("decoded CN %q", got)
	}
}

func TestDuplicateCNFirstVsLast(t *testing.T) {
	tpl := baseTemplate()
	tpl.Subject = SimpleDN(
		TextATV(OIDCommonName, "first.com"),
		TextATV(OIDCommonName, "last.com"),
	)
	c := buildLeaf(t, tpl)
	if c.Subject.First(OIDCommonName) != "first.com" {
		t.Error("First broken")
	}
	if c.Subject.Last(OIDCommonName) != "last.com" {
		t.Error("Last broken")
	}
	if n := c.Subject.Count(OIDCommonName); n != 2 {
		t.Errorf("values %d", n)
	}
}

func TestExtensionsRoundTrip(t *testing.T) {
	tpl := baseTemplate()
	tpl.IAN = []GeneralName{RFC822Name("admin@test.com")}
	tpl.CRLDistributionPoints = []GeneralName{URIName("http://crl.test.com/ca.crl")}
	tpl.AIA = []AccessDescription{{Method: OIDAccessCAIssuers, Location: URIName("http://ca.test.com/ca.crt")}}
	tpl.SIA = []AccessDescription{{Method: OIDAccessOCSP, Location: URIName("http://ocsp.test.com")}}
	tpl.Policies = []PolicyInformation{{
		Policy:       asn1der.OID{2, 23, 140, 1, 2, 1},
		CPSURIs:      []string{"https://cps.test.com"},
		ExplicitText: []DisplayText{{Tag: asn1der.TagUTF8String, Bytes: []byte("Politique de certification")}},
	}}
	c := buildLeaf(t, tpl)
	if len(c.IAN) != 1 || c.IAN[0].MustText() != "admin@test.com" {
		t.Errorf("IAN %v", c.IAN)
	}
	if len(c.CRLDistributionPoints) != 1 || c.CRLDistributionPoints[0].MustText() != "http://crl.test.com/ca.crl" {
		t.Errorf("CRLDP %v", c.CRLDistributionPoints)
	}
	if len(c.AIA) != 1 || !c.AIA[0].Method.Equal(OIDAccessCAIssuers) {
		t.Errorf("AIA %v", c.AIA)
	}
	if len(c.SIA) != 1 || c.SIA[0].Location.MustText() != "http://ocsp.test.com" {
		t.Errorf("SIA %v", c.SIA)
	}
	if len(c.Policies) != 1 || len(c.Policies[0].ExplicitText) != 1 {
		t.Fatalf("policies %+v", c.Policies)
	}
	et := c.Policies[0].ExplicitText[0]
	if et.Tag != asn1der.TagUTF8String || et.Decode() != "Politique de certification" {
		t.Errorf("explicitText %+v", et)
	}
}

func TestCTPoison(t *testing.T) {
	tpl := baseTemplate()
	tpl.CTPoison = true
	c := buildLeaf(t, tpl)
	if !c.IsPrecertificate() {
		t.Fatal("CT poison lost")
	}
	ext, ok := c.Extension(OIDExtCTPoison)
	if !ok || !ext.Critical {
		t.Fatal("CT poison must be a critical extension")
	}
}

func TestDirectoryNameGeneralName(t *testing.T) {
	tpl := baseTemplate()
	tpl.SAN = append(tpl.SAN, GeneralName{
		Kind:      GNDirectoryName,
		Directory: SimpleDN(TextATV(OIDCommonName, "Dir Entity")),
	})
	c := buildLeaf(t, tpl)
	var found bool
	for _, gn := range c.SAN {
		if gn.Kind == GNDirectoryName {
			found = true
			if gn.Directory.CommonName() != "Dir Entity" {
				t.Errorf("directory CN %q", gn.Directory.CommonName())
			}
		}
	}
	if !found {
		t.Fatal("directoryName SAN lost")
	}
}

func TestPEMRoundTrip(t *testing.T) {
	der, err := Build(baseTemplate(), testCAKey, testLeafKey)
	if err != nil {
		t.Fatal(err)
	}
	p := EncodePEM(der)
	back, err := DecodePEM(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back[0], der) {
		t.Fatal("PEM round trip mismatch")
	}
	c, err := ParsePEM(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Subject.CommonName() != "test.com" {
		t.Errorf("CN %q", c.Subject.CommonName())
	}
}

func TestDNString(t *testing.T) {
	dn := SimpleDN(
		TextATV(OIDCountryName, "DE"),
		TextATV(OIDOrganizationName, "Samco, GmbH"),
		TextATV(OIDCommonName, "samco.de"),
	)
	got := dn.String()
	want := `C=DE,O=Samco\, GmbH,CN=samco.de`
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestDeterministicBuild(t *testing.T) {
	a, err := Build(baseTemplate(), testCAKey, testLeafKey)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(baseTemplate(), testCAKey, testLeafKey)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("builds must be deterministic")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{nil, {0x30}, {0x02, 0x01, 0x01}, bytes.Repeat([]byte{0x30, 0x00}, 3)} {
		if _, err := Parse(in); err == nil {
			t.Errorf("input % X must fail", in)
		}
	}
}

func TestParseWithModeRejectsGarbage(t *testing.T) {
	for _, mode := range []ParseMode{ParseStrict, ParseLenient} {
		if _, err := ParseWithMode([]byte{0x00, 0x01}, mode); err == nil {
			t.Errorf("mode %v: garbage must be rejected", mode)
		}
	}
}

func TestValidityEncodingBoundary(t *testing.T) {
	// Certificates valid "until 2050" (§4.3.2) exercise the
	// UTCTime→GeneralizedTime boundary.
	tpl := baseTemplate()
	tpl.NotAfter = time.Date(2050, 6, 1, 0, 0, 0, 0, time.UTC)
	c := buildLeaf(t, tpl)
	if c.NotAfter.Year() != 2050 {
		t.Errorf("NotAfter %v", c.NotAfter)
	}
}

// TestStrictParseRejectsNonDERValidity: RFC 5280 §4.1.2.5 allows only
// YYMMDDHHMMSSZ and YYYYMMDDHHMMSSZ. A strict parse rejects any other
// notBefore; a lenient one reads it as Value.Time does.
func TestStrictParseRejectsNonDERValidity(t *testing.T) {
	der := allocTestDER(t)
	notBefore := func(root *asn1der.Value) *asn1der.Value { return root.Children[0].Children[4].Children[0] }
	for _, tc := range []struct {
		tag     int
		content string
		lenient time.Time
	}{
		{asn1der.TagUTCTime, "-10101000000Z", time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)},
		{asn1der.TagUTCTime, "+50101000000Z", time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)},
		{asn1der.TagUTCTime, "240101000000.5Z", time.Date(2024, 1, 1, 0, 0, 0, 5e8, time.UTC)},
		{asn1der.TagUTCTime, "2401010000Z", time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)},
		{asn1der.TagGeneralizedTime, "20240101000000.123Z", time.Date(2024, 1, 1, 0, 0, 0, 123e6, time.UTC)},
	} {
		bad := withValue(t, der, notBefore, tc.tag, tc.content)
		if _, err := ParseWithMode(bad, ParseStrict); err == nil || !strings.Contains(err.Error(), "notBefore") {
			t.Errorf("%q: strict parse error = %v, want a notBefore error", tc.content, err)
		}
		c, err := ParseWithMode(bad, ParseLenient)
		if err != nil || !c.NotBefore.Equal(tc.lenient) {
			t.Errorf("%q: lenient NotBefore = %v, %v; want %v", tc.content, c.NotBefore, err, tc.lenient)
		}
	}
}

// withValue re-encodes der with the value pick chooses replaced by a
// primitive of the given tag and content.
func withValue(t *testing.T, der []byte, pick func(root *asn1der.Value) *asn1der.Value, tag int, content string) []byte {
	t.Helper()
	root, err := asn1der.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	target := pick(root)
	var emit func(b *asn1der.Builder, v *asn1der.Value)
	emit = func(b *asn1der.Builder, v *asn1der.Value) {
		switch {
		case v == target:
			b.AddTLV(asn1der.Tag{Class: asn1der.ClassUniversal, Number: tag}, []byte(content))
		case v.Tag.Constructed:
			b.AddConstructed(v.Tag, func(b *asn1der.Builder) {
				for _, child := range v.Children {
					emit(b, child)
				}
			})
		default:
			b.AddRaw(v.Raw)
		}
	}
	var b asn1der.Builder
	emit(&b, root)
	out, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLenientParseKeepsBERExtensionRaw pins what a parse does with a SAN
// whose value uses a non-minimal long-form length: extension values are
// decoded as DER in both modes, so even a lenient parse leaves the SAN
// nil, keeps the raw extension, and records one warning.
func TestLenientParseKeepsBERExtensionRaw(t *testing.T) {
	tpl := baseTemplate()
	tpl.SAN = nil
	ber := append([]byte{0x30, 0x81, 0x0B, 0x82, 0x09}, "a.example"...)
	tpl.ExtraExtensions = []Extension{{OID: OIDExtSubjectAltName, Value: ber}}
	der, err := Build(tpl, testCAKey, testLeafKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ParseMode{ParseLenient, ParseStrict} {
		c, err := ParseWithMode(der, mode)
		if err != nil {
			t.Fatal(err)
		}
		if c.SAN != nil {
			t.Fatalf("mode %d: SAN = %v, want nil", mode, c.SAN)
		}
		if e, ok := c.Extension(OIDExtSubjectAltName); !ok || !bytes.Equal(e.Value, ber) {
			t.Fatalf("mode %d: raw SAN extension not kept: %v %q", mode, ok, e.Value)
		}
		want := "2.5.29.17: asn1der: syntax error at offset 1: non-minimal long-form length 11"
		if len(c.ParseWarnings) != 1 || c.ParseWarnings[0] != want {
			t.Fatalf("mode %d: ParseWarnings = %q, want [%q]", mode, c.ParseWarnings, want)
		}
	}
}

// TestParsedDNsShareNoCapacity: issuer and subject share one backing
// array each for ATVs and RDNs, but each DN is capped at its own share,
// so appending to the issuer's flattened attributes leaves the subject
// intact, and Attributes still flattens by reslicing.
func TestParsedDNsShareNoCapacity(t *testing.T) {
	c := buildLeaf(t, baseTemplate())
	subject := c.Subject.String()
	attrs := c.Issuer.Attributes()
	if &attrs[0] != &c.Issuer[0][0] || cap(attrs) != len(attrs) {
		t.Fatalf("issuer attributes: copied or uncapped (len %d cap %d)", len(attrs), cap(attrs))
	}
	if n := testing.AllocsPerRun(10, func() { c.Subject.Attributes() }); n != 0 {
		t.Fatalf("subject Attributes allocates %v times", n)
	}
	_ = append(attrs, TextATV(OIDCommonName, "overwrite"))
	_ = append(c.Issuer, RDN{TextATV(OIDCommonName, "overwrite")})
	if got := c.Subject.String(); got != subject {
		t.Fatalf("subject changed by an append to the issuer: %q, was %q", got, subject)
	}
}
