package x509cert

import (
	"math/big"
	"testing"
	"time"

	"repro/internal/asn1der"
)

// TestParseCRLRejectsNonDERTimes: RFC 5280 §5.1.2.4–5.1.2.6 give
// thisUpdate, nextUpdate and each revocationDate the validity's two
// DER layouts only. Every other layout is rejected wherever it sits;
// either DER layout still parses to its time.
func TestParseCRLRejectsNonDERTimes(t *testing.T) {
	key, err := GenerateKey(604)
	if err != nil {
		t.Fatal(err)
	}
	der, err := BuildCRL(&CRLTemplate{
		Issuer:     SimpleDN(TextATV(OIDCommonName, "CRL CA")),
		ThisUpdate: time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NextUpdate: time.Date(2025, 2, 1, 0, 0, 0, 0, time.UTC),
		Revoked: []RevokedCertificate{
			{SerialNumber: big.NewInt(9), RevocationDate: time.Date(2025, 1, 15, 0, 0, 0, 0, time.UTC)},
		},
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	// tbsCertList: version, signature, issuer, thisUpdate, nextUpdate,
	// revokedCertificates.
	fields := []struct {
		name string
		pick func(root *asn1der.Value) *asn1der.Value
		read func(*CRL) time.Time
	}{
		{"thisUpdate", func(r *asn1der.Value) *asn1der.Value { return r.Children[0].Children[3] },
			func(c *CRL) time.Time { return c.ThisUpdate }},
		{"nextUpdate", func(r *asn1der.Value) *asn1der.Value { return r.Children[0].Children[4] },
			func(c *CRL) time.Time { return c.NextUpdate }},
		{"revocationDate", func(r *asn1der.Value) *asn1der.Value { return r.Children[0].Children[5].Children[0].Children[1] },
			func(c *CRL) time.Time { return c.Revoked[0].RevocationDate }},
	}
	for _, f := range fields {
		for _, tc := range []struct {
			tag     int
			content string
		}{
			{asn1der.TagUTCTime, "2401010000Z"},
			{asn1der.TagUTCTime, "240101000000.5Z"},
			{asn1der.TagUTCTime, "-10101000000Z"},
			{asn1der.TagUTCTime, "+50101000000Z"},
			{asn1der.TagGeneralizedTime, "20240101000000.123Z"},
		} {
			if _, err := ParseCRL(withValue(t, der, f.pick, tc.tag, tc.content)); err == nil {
				t.Errorf("%s %q: parsed, want an error", f.name, tc.content)
			}
		}
		want := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
		for _, tc := range []struct {
			tag     int
			content string
		}{
			{asn1der.TagUTCTime, "240101000000Z"},
			{asn1der.TagGeneralizedTime, "20240101000000Z"},
		} {
			crl, err := ParseCRL(withValue(t, der, f.pick, tc.tag, tc.content))
			if err != nil || !f.read(crl).Equal(want) {
				t.Errorf("%s %q: %v, want %v", f.name, tc.content, err, want)
				continue
			}
			if !crl.IsRevoked(big.NewInt(9)) {
				t.Errorf("%s %q: serial 9 no longer revoked", f.name, tc.content)
			}
		}
	}
}
