package lints

// T3 "Invalid Structure" (2 lints) and "Discouraged Field" (2 lints),
// none new (§4.3.1).

import (
	"strings"

	"repro/internal/asn1der"
	"repro/internal/lint"
	"repro/internal/x509cert"
)

// singleValuedAttrs are the attribute types the duplicate-attribute
// lint flags; hoisted so the per-certificate run is allocation-free.
var singleValuedAttrs = []asn1der.OID{
	x509cert.OIDCommonName,
	x509cert.OIDSerialNumber,
	x509cert.OIDCountryName,
}

func init() {
	// Structure 1. CN must appear in the SAN (CA/B BRs) — the second
	// most-triggered lint in Table 11. The paper keeps the zlint "w_"
	// name but the BRs phrase it as a MUST, so it is error severity.
	register(&lint.Lint{
		Name:          "w_cab_subject_common_name_not_in_san",
		Description:   "When present, the Subject CN must duplicate a value from the SAN",
		Severity:      lint.Error,
		Source:        lint.SourceCABF,
		Taxonomy:      lint.T3InvalidStructure,
		EffectiveDate: dateCABF,
		CheckApplies: func(c *x509cert.Certificate) bool {
			return c.CommonName() != "" && hasSAN(c)
		},
		Run: func(c *x509cert.Certificate) lint.Result {
			cn := strings.ToLower(c.CommonName())
			texts := c.SANTexts()
			for i, gn := range c.SAN {
				switch gn.Kind {
				case x509cert.GNDNSName, x509cert.GNRFC822Name, x509cert.GNURI, x509cert.GNIPAddress:
					if strings.ToLower(texts[i]) == cn {
						return lint.PassResult
					}
				}
			}
			return lint.Failf("CN %q not found among SAN values", c.CommonName())
		},
	})

	// Structure 2. Duplicate attribute types in the Subject (multiple
	// CNs), the ambiguity behind the first-vs-last divergence of
	// §4.3.1.
	register(&lint.Lint{
		Name:          "e_subject_duplicate_attribute",
		Description:   "Subject DNs must not repeat single-valued attribute types such as CN or serialNumber",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidStructure,
		EffectiveDate: dateRFC5280,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, oid := range singleValuedAttrs {
				if n := c.Subject.Count(oid); n > 1 {
					return lint.Failf("attribute %s appears %d times", oid, n)
				}
			}
			return lint.PassResult
		},
	})

	// Discouraged 1. Extra (non-SAN-backed) CN usage at all —
	// w_cab_subject_contain_extra_common_name of Table 11.
	register(&lint.Lint{
		Name:          "w_cab_subject_contain_extra_common_name",
		Description:   "Use of the Subject CN is discouraged; identities belong in the SAN",
		Severity:      lint.Warning,
		Source:        lint.SourceCABF,
		Taxonomy:      lint.T3DiscouragedField,
		EffectiveDate: dateCABF,
		CheckApplies: func(c *x509cert.Certificate) bool {
			return c.Subject.Count(x509cert.OIDCommonName) > 1
		},
		Run: func(c *x509cert.Certificate) lint.Result {
			return lint.Failf("Subject contains %d CommonName attributes", c.Subject.Count(x509cert.OIDCommonName))
		},
	})

	// Discouraged 2. URIs in the SAN of TLS server certificates.
	register(&lint.Lint{
		Name:          "w_san_contains_uri",
		Description:   "URIs in the SubjectAltName of TLS server certificates are discouraged",
		Severity:      lint.Warning,
		Source:        lint.SourceCABF,
		Taxonomy:      lint.T3DiscouragedField,
		EffectiveDate: dateCABF,
		CheckApplies:  hasSAN,
		Run: func(c *x509cert.Certificate) lint.Result {
			if uris := c.URIs(); len(uris) > 0 {
				return lint.Failf("SAN contains URI %q", uris[0])
			}
			return lint.PassResult
		},
	})
}
