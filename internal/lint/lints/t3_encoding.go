package lints

// T3 "Invalid Encoding" lints: use of unsupported or disallowed ASN.1
// string types (§4.3.1). 48 lints, 37 of them new — the paper's largest
// group, and the one its measurement found most under-addressed.

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/asn1der"
	"repro/internal/idna"
	"repro/internal/lint"
	"repro/internal/punycode"
	"repro/internal/x509cert"
)

// dnSide selects Subject or Issuer for the per-attribute factories.
type dnSide int

const (
	subjectSide dnSide = iota
	issuerSide
)

func (s dnSide) dn(c *x509cert.Certificate) x509cert.DN {
	if s == subjectSide {
		return c.Subject
	}
	return c.Issuer
}

func (s dnSide) String() string {
	if s == subjectSide {
		return "Subject"
	}
	return "Issuer"
}

// notPrintableOrUTF8Lint builds the RFC 5280 DirectoryString encoding
// rule for one attribute: CAs MUST encode with PrintableString or
// UTF8String (with a TeletexString legacy carve-out handled by the
// dedicated w_teletex lint). printableOnly further restricts to
// PrintableString (countryName, serialNumber, jurisdictionCountry).
func notPrintableOrUTF8Lint(name string, side dnSide, oid asn1der.OID, printableOnly, isNew bool) *lint.Lint {
	want := "PrintableString or UTF8String"
	if printableOnly {
		want = "PrintableString"
	}
	return &lint.Lint{
		Name:          name,
		Description:   fmt.Sprintf("%s %s must be encoded as %s", side, x509cert.AttrName(oid), want),
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           isNew,
		EffectiveDate: dateRFC5280,
		CheckApplies: func(c *x509cert.Certificate) bool {
			return side.dn(c).Count(oid) > 0
		},
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range side.dn(c).Attributes() {
				if !atv.Type.Equal(oid) {
					continue
				}
				tag := atv.Value.Tag
				if printableOnly {
					if tag != asn1der.TagPrintableString {
						return lint.Failf("%s %s uses %s", side, x509cert.AttrName(oid), asn1der.Tag{Class: asn1der.ClassUniversal, Number: tag})
					}
					continue
				}
				if !isPrintableOrUTF8(tag) {
					return lint.Failf("%s %s uses %s", side, x509cert.AttrName(oid), asn1der.Tag{Class: asn1der.ClassUniversal, Number: tag})
				}
			}
			return lint.PassResult
		},
	}
}

func init() {
	// ——— Existing-coverage lints (11) ———

	// 1. The paper's single most-triggered lint (117K warnings):
	// explicitText SHOULD be UTF8String.
	register(&lint.Lint{
		Name:          "w_rfc_ext_cp_explicit_text_not_utf8",
		Description:   "CertificatePolicies explicitText should use UTF8String encoding",
		Severity:      lint.Warning,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		EffectiveDate: dateRFC5280,
		CheckApplies:  hasExplicitText,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, p := range c.Policies {
				for _, et := range p.ExplicitText {
					if et.Tag != asn1der.TagUTF8String {
						return lint.Failf("explicitText uses tag %d", et.Tag)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 2. explicitText MUST NOT be IA5String (RFC 5280 §4.2.1.4).
	register(&lint.Lint{
		Name:          "e_rfc_ext_cp_explicit_text_ia5",
		Description:   "CertificatePolicies explicitText must not use IA5String encoding",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		EffectiveDate: dateRFC5280,
		CheckApplies:  hasExplicitText,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, p := range c.Policies {
				for _, et := range p.ExplicitText {
					if et.Tag == asn1der.TagIA5String {
						return lint.Failf("explicitText uses IA5String")
					}
				}
			}
			return lint.PassResult
		},
	})

	// 3–4. PrintableString-only attributes.
	register(notPrintableOrUTF8Lint("e_subject_dn_serial_number_not_printable", subjectSide, x509cert.OIDSerialNumber, true, false))
	register(notPrintableOrUTF8Lint("e_rfc_subject_country_not_printable", subjectSide, x509cert.OIDCountryName, true, false))

	// 5. emailAddress attribute must be IA5String (PKCS#9).
	register(&lint.Lint{
		Name:          "e_subject_email_not_ia5",
		Description:   "Subject emailAddress must use IA5String encoding",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		EffectiveDate: dateRFC3280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return c.Subject.Count(x509cert.OIDEmailAddress) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.Subject.Attributes() {
				if !atv.Type.Equal(x509cert.OIDEmailAddress) {
					continue
				}
				if atv.Value.Tag != asn1der.TagIA5String {
					return lint.Failf("emailAddress uses tag %d", atv.Value.Tag)
				}
			}
			return lint.PassResult
		},
	})

	// 6. domainComponent must be IA5String (RFC 4519).
	register(&lint.Lint{
		Name:          "e_subject_dc_not_ia5",
		Description:   "Subject domainComponent must use IA5String encoding",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		EffectiveDate: dateRFC3280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return c.Subject.Count(x509cert.OIDDomainComponent) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.Subject.Attributes() {
				if !atv.Type.Equal(x509cert.OIDDomainComponent) {
					continue
				}
				if atv.Value.Tag != asn1der.TagIA5String {
					return lint.Failf("domainComponent uses tag %d", atv.Value.Tag)
				}
			}
			return lint.PassResult
		},
	})

	// 7. DirectoryString attributes using a tag outside the CHOICE.
	register(&lint.Lint{
		Name:          "e_directory_string_bad_tag",
		Description:   "DirectoryString attributes must use one of the five CHOICE encodings",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		EffectiveDate: dateRFC3280,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.AllAttributes() {
				if atv.Type.Equal(x509cert.OIDEmailAddress) || atv.Type.Equal(x509cert.OIDDomainComponent) {
					continue // IA5String attributes, checked separately
				}
				if !isDirectoryStringTag(atv.Value.Tag) && atv.Value.Tag != asn1der.TagIA5String && atv.Value.Tag != asn1der.TagNumericString {
					return lint.Failf("%s uses tag %d", x509cert.AttrName(atv.Type), atv.Value.Tag)
				}
			}
			return lint.PassResult
		},
	})

	// 8–10. Deprecated DirectoryString arms.
	for _, e := range []struct {
		name string
		tag  int
	}{
		{"w_subject_dn_uses_teletexstring", asn1der.TagTeletexString},
		{"w_subject_dn_uses_bmpstring", asn1der.TagBMPString},
		{"w_subject_dn_uses_universalstring", asn1der.TagUniversalString},
	} {
		tag := e.tag
		register(&lint.Lint{
			Name:          e.name,
			Description:   fmt.Sprintf("Subject DN should not use the deprecated %s encoding", asn1der.Tag{Class: asn1der.ClassUniversal, Number: tag}),
			Severity:      lint.Warning,
			Source:        lint.SourceRFC5280,
			Taxonomy:      lint.T3InvalidEncoding,
			EffectiveDate: dateRFC5280,
			CheckApplies:  appliesToSubjectDN,
			Run: func(c *x509cert.Certificate) lint.Result {
				for _, atv := range c.Subject.Attributes() {
					if atv.Value.Tag == tag {
						return lint.Failf("%s uses deprecated encoding", x509cert.AttrName(atv.Type))
					}
				}
				return lint.PassResult
			},
		})
	}

	// 11. 8-bit bytes in IA5String GeneralNames.
	register(&lint.Lint{
		Name:          "e_gn_ia5_contains_8bit",
		Description:   "IA5String GeneralName payloads must be 7-bit",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		EffectiveDate: dateRFC3280,
		Run: func(c *x509cert.Certificate) lint.Result {
			groups := [][]x509cert.GeneralName{c.SAN, c.IAN, c.CRLDistributionPoints}
			for _, gns := range groups {
				for _, gn := range gns {
					switch gn.Kind {
					case x509cert.GNDNSName, x509cert.GNRFC822Name, x509cert.GNURI:
						for _, b := range gn.Bytes {
							if b >= 0x80 {
								return lint.Failf("%s contains byte 0x%02X", gn.Kind, b)
							}
						}
					}
				}
			}
			return lint.PassResult
		},
	})

	// ——— New lints (37) ———

	// 12–24. Subject per-attribute encoding rules (13 new).
	register(notPrintableOrUTF8Lint("e_subject_common_name_not_printable_or_utf8", subjectSide, x509cert.OIDCommonName, false, true))
	register(notPrintableOrUTF8Lint("e_subject_organization_not_printable_or_utf8", subjectSide, x509cert.OIDOrganizationName, false, true))
	register(notPrintableOrUTF8Lint("e_subject_ou_not_printable_or_utf8", subjectSide, x509cert.OIDOrganizationalUnit, false, true))
	register(notPrintableOrUTF8Lint("e_subject_locality_not_printable_or_utf8", subjectSide, x509cert.OIDLocalityName, false, true))
	register(notPrintableOrUTF8Lint("e_subject_state_not_printable_or_utf8", subjectSide, x509cert.OIDStateOrProvinceName, false, true))
	register(notPrintableOrUTF8Lint("e_subject_street_not_printable_or_utf8", subjectSide, x509cert.OIDStreetAddress, false, true))
	register(notPrintableOrUTF8Lint("e_subject_postal_code_not_printable_or_utf8", subjectSide, x509cert.OIDPostalCode, false, true))
	register(notPrintableOrUTF8Lint("e_subject_jurisdiction_locality_not_printable_or_utf8", subjectSide, x509cert.OIDJurisdictionLocality, false, true))
	register(notPrintableOrUTF8Lint("e_subject_jurisdiction_state_not_printable_or_utf8", subjectSide, x509cert.OIDJurisdictionState, false, true))
	register(notPrintableOrUTF8Lint("e_subject_jurisdiction_country_not_printable", subjectSide, x509cert.OIDJurisdictionCountry, true, true))
	register(notPrintableOrUTF8Lint("e_subject_given_name_not_printable_or_utf8", subjectSide, x509cert.OIDGivenName, false, true))
	register(notPrintableOrUTF8Lint("e_subject_surname_not_printable_or_utf8", subjectSide, x509cert.OIDSurname, false, true))
	register(notPrintableOrUTF8Lint("e_subject_business_category_not_printable_or_utf8", subjectSide, x509cert.OIDBusinessCategory, false, true))

	// 25–37. Issuer per-attribute encoding rules (13 new).
	register(notPrintableOrUTF8Lint("e_issuer_common_name_not_printable_or_utf8", issuerSide, x509cert.OIDCommonName, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_organization_not_printable_or_utf8", issuerSide, x509cert.OIDOrganizationName, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_ou_not_printable_or_utf8", issuerSide, x509cert.OIDOrganizationalUnit, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_locality_not_printable_or_utf8", issuerSide, x509cert.OIDLocalityName, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_state_not_printable_or_utf8", issuerSide, x509cert.OIDStateOrProvinceName, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_street_not_printable_or_utf8", issuerSide, x509cert.OIDStreetAddress, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_postal_code_not_printable_or_utf8", issuerSide, x509cert.OIDPostalCode, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_jurisdiction_locality_not_printable_or_utf8", issuerSide, x509cert.OIDJurisdictionLocality, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_jurisdiction_state_not_printable_or_utf8", issuerSide, x509cert.OIDJurisdictionState, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_jurisdiction_country_not_printable", issuerSide, x509cert.OIDJurisdictionCountry, true, true))
	register(notPrintableOrUTF8Lint("e_issuer_given_name_not_printable_or_utf8", issuerSide, x509cert.OIDGivenName, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_surname_not_printable_or_utf8", issuerSide, x509cert.OIDSurname, false, true))
	register(notPrintableOrUTF8Lint("e_issuer_business_category_not_printable_or_utf8", issuerSide, x509cert.OIDBusinessCategory, false, true))

	// 38. NEW: explicitText must not use BMPString (RFC 6818 update).
	register(&lint.Lint{
		Name:          "e_ext_cp_explicit_text_bmp",
		Description:   "CertificatePolicies explicitText must not use the deprecated BMPString encoding",
		Severity:      lint.Error,
		Source:        lint.SourceRFC6818,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  hasExplicitText,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, p := range c.Policies {
				for _, et := range p.ExplicitText {
					if et.Tag == asn1der.TagBMPString {
						return lint.Failf("explicitText uses BMPString")
					}
				}
			}
			return lint.PassResult
		},
	})

	// 39. NEW: VisibleString is permitted but discouraged for
	// explicitText.
	register(&lint.Lint{
		Name:          "w_ext_cp_explicit_text_visible",
		Description:   "CertificatePolicies explicitText should avoid VisibleString in favour of UTF8String",
		Severity:      lint.Warning,
		Source:        lint.SourceRFC6818,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  hasExplicitText,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, p := range c.Policies {
				for _, et := range p.ExplicitText {
					if et.Tag == asn1der.TagVisibleString {
						return lint.Failf("explicitText uses VisibleString")
					}
				}
			}
			return lint.PassResult
		},
	})

	// 40. NEW: RFC 9598 — non-ASCII local parts require the
	// SmtpUTF8Mailbox otherName, not RFC822Name.
	register(&lint.Lint{
		Name:          "e_san_email_smtputf8_required",
		Description:   "RFC822Names are restricted to US-ASCII; internationalized local parts require SmtpUTF8Mailbox",
		Severity:      lint.Error,
		Source:        lint.SourceRFC9598,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC9598,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.EmailAddresses()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.SANTexts()
			for i, gn := range c.SAN {
				if gn.Kind != x509cert.GNRFC822Name {
					continue
				}
				for _, b := range gn.Bytes {
					if b >= 0x80 {
						return lint.Failf("RFC822Name %q carries non-ASCII content", texts[i])
					}
				}
			}
			return lint.PassResult
		},
	})

	// 41. NEW: RFC 9598 — RFC822Name domain parts must be IDNA2008
	// LDH (A-label) form.
	register(&lint.Lint{
		Name:          "e_rfc822_domain_not_ldh",
		Description:   "RFC822Name domain parts must consist of IDNA2008-compliant LDH labels",
		Severity:      lint.Error,
		Source:        lint.SourceRFC9598,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC9598,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.EmailAddresses()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, e := range c.EmailAddresses() {
				parts := strings.SplitN(e, "@", 2)
				if len(parts) != 2 {
					continue
				}
				for _, label := range strings.Split(strings.TrimSuffix(strings.ToLower(parts[1]), "."), ".") {
					if strings.HasPrefix(label, punycode.ACEPrefix) {
						if err := idna.ValidateALabel(label); err != nil {
							return lint.Failf("email domain label %q: %v", label, err)
						}
						continue
					}
					if err := idna.ValidateLDHLabel(label); err != nil {
						return lint.Failf("email domain label %q: %v", label, err)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 42. NEW: IAN emails under the same ASCII restriction.
	register(&lint.Lint{
		Name:          "e_ian_email_not_ascii",
		Description:   "IssuerAltName RFC822Names are restricted to US-ASCII",
		Severity:      lint.Error,
		Source:        lint.SourceRFC9598,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC9598,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.IAN) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, gn := range c.IAN {
				if gn.Kind != x509cert.GNRFC822Name {
					continue
				}
				for _, b := range gn.Bytes {
					if b >= 0x80 {
						return lint.Failf("IAN RFC822Name carries non-ASCII content")
					}
				}
			}
			return lint.PassResult
		},
	})

	// 43. NEW: BMPString content must be an even number of octets.
	register(&lint.Lint{
		Name:          "e_bmp_string_odd_length",
		Description:   "BMPString content must be a whole number of UCS-2 code units",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC3280,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.AllAttributes() {
				if atv.Value.Tag == asn1der.TagBMPString && len(atv.Value.Bytes)%2 != 0 {
					return lint.Failf("%s BMPString has %d octets", x509cert.AttrName(atv.Type), len(atv.Value.Bytes))
				}
			}
			return lint.PassResult
		},
	})

	// 44. NEW: UniversalString content must be 4-octet aligned.
	register(&lint.Lint{
		Name:          "e_universal_string_length_not_multiple_4",
		Description:   "UniversalString content must be a whole number of UCS-4 code units",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC3280,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.AllAttributes() {
				if atv.Value.Tag == asn1der.TagUniversalString && len(atv.Value.Bytes)%4 != 0 {
					return lint.Failf("%s UniversalString has %d octets", x509cert.AttrName(atv.Type), len(atv.Value.Bytes))
				}
			}
			return lint.PassResult
		},
	})

	// 45. NEW: TeletexString is only grandfathered for previously
	// established subjects; new issuance should not use it. (A full
	// check needs issuing history — Limitation 3 — so this flags use
	// in newly effective certificates as a warning.)
	register(&lint.Lint{
		Name:          "w_teletex_string_for_new_subject",
		Description:   "TeletexString should only appear in certificates for previously established subjects",
		Severity:      lint.Warning,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.Subject.Attributes() {
				if atv.Value.Tag == asn1der.TagTeletexString {
					return lint.Failf("%s uses TeletexString", x509cert.AttrName(atv.Type))
				}
			}
			return lint.PassResult
		},
	})

	// 46. NEW: declared UTF8String whose bytes are not valid UTF-8 —
	// one of the 7,415 ASN.1 encoding errors of §5.1.
	register(&lint.Lint{
		Name:          "e_utf8_declared_but_invalid_bytes",
		Description:   "UTF8String values must contain well-formed UTF-8",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC3280,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.AllAttributes() {
				if atv.Value.Tag == asn1der.TagUTF8String && !utf8.Valid(atv.Value.Bytes) {
					return lint.Failf("%s UTF8String carries invalid bytes", x509cert.AttrName(atv.Type))
				}
			}
			return lint.PassResult
		},
	})

	// 47. NEW: CRL distribution point URIs must be 7-bit IA5.
	register(&lint.Lint{
		Name:          "e_crl_dp_uri_not_ia5",
		Description:   "CRL distribution point URIs must be 7-bit IA5String content",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.CRLDistributionPoints) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, gn := range c.CRLDistributionPoints {
				for _, b := range gn.Bytes {
					if b >= 0x80 {
						return lint.Failf("CRL DP contains byte 0x%02X", b)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 48. NEW: AIA/SIA access locations must be 7-bit IA5.
	register(&lint.Lint{
		Name:          "e_aia_location_not_ia5",
		Description:   "AIA and SIA access locations must be 7-bit IA5String content",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3InvalidEncoding,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.AIA)+len(c.SIA) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, ad := range append(append([]x509cert.AccessDescription{}, c.AIA...), c.SIA...) {
				for _, b := range ad.Location.Bytes {
					if b >= 0x80 {
						return lint.Failf("access location contains byte 0x%02X", b)
					}
				}
			}
			return lint.PassResult
		},
	})
}

func hasExplicitText(c *x509cert.Certificate) bool {
	for _, p := range c.Policies {
		if len(p.ExplicitText) > 0 {
			return true
		}
	}
	return false
}
