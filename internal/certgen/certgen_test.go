package certgen

import (
	"testing"

	"repro/internal/asn1der"
	"repro/internal/strenc"
	"repro/internal/x509cert"
)

func newGen(t *testing.T) *Generator {
	t.Helper()
	g, err := New(42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateMutatesOnlyTargetField(t *testing.T) {
	g := newGen(t)
	tc, err := g.Generate(FieldSubjectOrganization, asn1der.TagUTF8String, "Ünïcode Org")
	if err != nil {
		t.Fatal(err)
	}
	c, err := x509cert.Parse(tc.DER)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Subject.First(x509cert.OIDOrganizationName); got != "Ünïcode Org" {
		t.Errorf("O = %q", got)
	}
	// Everything else at defaults.
	if got := c.Issuer.CommonName(); got != "Unicert Test CA" {
		t.Errorf("issuer CN %q", got)
	}
	if names := c.DNSNames(); len(names) != 1 || names[0] != "test.com" {
		t.Errorf("SAN %v", names)
	}
}

func TestGenerateGeneralNameMutation(t *testing.T) {
	g := newGen(t)
	// The attribute-forgery payload of §5.2.
	tc, err := g.Generate(FieldSANDNSName, asn1der.TagIA5String, "a.com DNS:b.com")
	if err != nil {
		t.Fatal(err)
	}
	c, err := x509cert.Parse(tc.DER)
	if err != nil {
		t.Fatal(err)
	}
	if names := c.DNSNames(); len(names) != 1 || names[0] != "a.com DNS:b.com" {
		t.Fatalf("SAN %v", names)
	}
}

func TestGenerateRawInvalidUTF8(t *testing.T) {
	g := newGen(t)
	raw := []byte{'t', 0xC3, 0x28, 't'} // invalid UTF-8 sequence
	tc, err := g.GenerateRaw(FieldSubjectCN, asn1der.TagUTF8String, raw)
	if err != nil {
		t.Fatal(err)
	}
	c, err := x509cert.Parse(tc.DER)
	if err != nil {
		t.Fatal(err)
	}
	atv := c.Subject.Attributes()[0]
	if string(atv.Value.Bytes) != string(raw) {
		t.Fatalf("bytes % X", atv.Value.Bytes)
	}
	if _, err := strenc.Decode(atv.Value.StringType().StandardMethod(), strenc.Strict, atv.Value.Bytes); err == nil {
		t.Fatal("invalid UTF-8 must fail strict decoding")
	}
}

func TestEmbedRune(t *testing.T) {
	got := EmbedRune("test.com", 0x202E)
	if got != "test‮.com" {
		t.Fatalf("got %q (runes %U)", got, []rune(got))
	}
}

func TestSuiteDimensions(t *testing.T) {
	g := newGen(t)
	runes := []rune{0x00, 0x7F, 0xE9}
	suite, err := g.Suite(SuiteOptions{
		Fields: []Field{FieldSubjectCN, FieldSANDNSName},
		Tags:   []int{asn1der.TagPrintableString, asn1der.TagUTF8String},
		Runes:  runes,
	})
	if err != nil {
		t.Fatal(err)
	}
	// CN: 2 tags × 3 runes; SAN: 1 tag (IA5 only) × 3 runes.
	if len(suite) != 2*3+3 {
		t.Fatalf("suite size %d", len(suite))
	}
	for _, tc := range suite {
		if _, err := x509cert.Parse(tc.DER); err != nil {
			t.Fatalf("%s U+%04X: %v", tc.Field, tc.Injected, err)
		}
	}
}

func TestSuiteFullSampleSetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full sample set is large")
	}
	g := newGen(t)
	suite, err := g.Suite(SuiteOptions{
		Fields: []Field{FieldSubjectCN},
		Tags:   []int{asn1der.TagUTF8String},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) < 256 {
		t.Fatalf("expected at least 256 certificates, got %d", len(suite))
	}
}

func TestFieldNames(t *testing.T) {
	for _, f := range Fields() {
		if f.String() == "" || f.String()[0] == 'F' && f.String()[1] == 'i' {
			t.Errorf("field %d lacks a name: %q", int(f), f.String())
		}
	}
}

func TestDeterministicSuite(t *testing.T) {
	g1 := newGen(t)
	g2 := newGen(t)
	a, err := g1.Generate(FieldSubjectCN, asn1der.TagUTF8String, "x")
	if err != nil {
		t.Fatal(err)
	}
	b, err := g2.Generate(FieldSubjectCN, asn1der.TagUTF8String, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(a.DER) != string(b.DER) {
		t.Fatal("same seed must produce identical certificates")
	}
}
