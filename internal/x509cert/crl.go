package x509cert

// CRL support (RFC 5280 §5): the CertificateList structure, building,
// parsing, signature verification, and revocation lookup. The paper's
// §5.2 CRL-spoofing threat needs a working revocation substrate to
// demonstrate end-to-end: a client that mangles the distribution-point
// URL fetches no (or the wrong) CRL and misses a revocation.

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"repro/internal/asn1der"
)

// RevokedCertificate is one CRL entry.
type RevokedCertificate struct {
	SerialNumber   *big.Int
	RevocationDate time.Time
}

// CRL is a parsed (or built) certificate revocation list.
type CRL struct {
	Raw        []byte
	RawTBS     []byte
	Issuer     DN
	ThisUpdate time.Time
	NextUpdate time.Time
	Revoked    []RevokedCertificate
	Signature  []byte
}

// CRLTemplate describes a CRL to build.
type CRLTemplate struct {
	Issuer     DN
	ThisUpdate time.Time
	NextUpdate time.Time
	Revoked    []RevokedCertificate
}

// BuildCRL encodes and signs a CRL with the issuer key.
func BuildCRL(t *CRLTemplate, issuerKey *KeyPair) ([]byte, error) {
	var tb asn1der.Builder
	tb.AddSequence(func(b *asn1der.Builder) {
		b.AddInt(1) // v2
		b.AddSequence(func(b *asn1der.Builder) { b.AddOID(OIDECDSAWithSHA256) })
		addDN(b, t.Issuer)
		b.AddTime(t.ThisUpdate)
		if !t.NextUpdate.IsZero() {
			b.AddTime(t.NextUpdate)
		}
		if len(t.Revoked) > 0 {
			b.AddSequence(func(b *asn1der.Builder) {
				for _, rc := range t.Revoked {
					rc := rc
					b.AddSequence(func(b *asn1der.Builder) {
						b.AddBigInt(rc.SerialNumber)
						b.AddTime(rc.RevocationDate)
					})
				}
			})
		}
	})
	tbs, err := tb.Bytes()
	if err != nil {
		return nil, err
	}
	sig, err := issuerKey.Sign(tbs)
	if err != nil {
		return nil, err
	}
	var b asn1der.Builder
	b.AddSequence(func(b *asn1der.Builder) {
		b.AddRaw(tbs)
		b.AddSequence(func(b *asn1der.Builder) { b.AddOID(OIDECDSAWithSHA256) })
		b.AddBitString(sig)
	})
	return b.Bytes()
}

// ParseCRL decodes a DER CertificateList. thisUpdate, nextUpdate and
// each revocationDate must take DER's two time layouts (RFC 5280
// §5.1.2.4–5.1.2.6), as a strict certificate parse's validity does.
func ParseCRL(der []byte) (*CRL, error) {
	root, err := asn1der.Parse(der)
	if err != nil {
		return nil, err
	}
	if len(root.Children) != 3 {
		return nil, errors.New("x509cert: CertificateList needs 3 elements")
	}
	tbs := root.Children[0]
	crl := &CRL{Raw: root.Raw, RawTBS: tbs.Raw}
	i := 0
	next := func() *asn1der.Value {
		if i >= len(tbs.Children) {
			return nil
		}
		v := tbs.Children[i]
		i++
		return v
	}
	v := next()
	if v == nil {
		return nil, errors.New("x509cert: empty tbsCertList")
	}
	// Optional version.
	if v.Tag.Number == asn1der.TagInteger && v.Tag.Class == asn1der.ClassUniversal {
		v = next()
	}
	// signature AlgorithmIdentifier.
	if v == nil {
		return nil, errors.New("x509cert: missing CRL signature algorithm")
	}
	if v = next(); v == nil {
		return nil, errors.New("x509cert: missing CRL issuer")
	}
	if crl.Issuer, err = parseDN(v); err != nil {
		return nil, fmt.Errorf("x509cert: crl issuer: %v", err)
	}
	if v = next(); v == nil {
		return nil, errors.New("x509cert: missing thisUpdate")
	}
	if crl.ThisUpdate, err = v.DERTime(); err != nil {
		return nil, err
	}
	for v = next(); v != nil; v = next() {
		switch {
		case v.Tag.Class == asn1der.ClassUniversal &&
			(v.Tag.Number == asn1der.TagUTCTime || v.Tag.Number == asn1der.TagGeneralizedTime):
			if crl.NextUpdate, err = v.DERTime(); err != nil {
				return nil, err
			}
		case v.Tag.Class == asn1der.ClassUniversal && v.Tag.Number == asn1der.TagSequence:
			for _, entry := range v.Children {
				if len(entry.Children) < 2 {
					return nil, errors.New("x509cert: malformed revokedCertificate")
				}
				serial, err := entry.Children[0].BigInt()
				if err != nil {
					return nil, err
				}
				when, err := entry.Children[1].DERTime()
				if err != nil {
					return nil, err
				}
				crl.Revoked = append(crl.Revoked, RevokedCertificate{SerialNumber: serial, RevocationDate: when})
			}
		}
	}
	sig, unused, err := root.Children[2].BitString()
	if err != nil || unused != 0 {
		return nil, errors.New("x509cert: malformed CRL signature")
	}
	crl.Signature = sig
	return crl, nil
}

// VerifyCRL checks the CRL signature against the issuer certificate.
func VerifyCRL(issuer *Certificate, crl *CRL) bool {
	pub, ok := parsePublicPoint(issuer.PublicKeyBytes)
	if !ok {
		return false
	}
	return verifyECDSA(pub, crl.RawTBS, crl.Signature)
}

// IsRevoked reports whether the serial appears in the CRL.
func (c *CRL) IsRevoked(serial *big.Int) bool {
	for _, rc := range c.Revoked {
		if rc.SerialNumber.Cmp(serial) == 0 {
			return true
		}
	}
	return false
}
