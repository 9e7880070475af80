package lints

// T3 "Illegal Format" lints: basic formatting errors such as length
// overflows and incorrect character cases (§4.3.1). 17 lints, none new
// (all have counterparts in existing linters).

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

// maxLengthLint builds a per-attribute upper-bound lint (X.520 ub-*).
func maxLengthLint(name string, oid asn1der.OID, max int) *lint.Lint {
	return &lint.Lint{
		Name:          name,
		Description:   fmt.Sprintf("%s must not exceed %d characters", x509cert.AttrName(oid), max),
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateRFC3280,
		CheckApplies: func(c *x509cert.Certificate) bool {
			return c.Subject.Count(oid) > 0
		},
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.SubjectTexts()
			for i, atv := range c.Subject.Attributes() {
				if !atv.Type.Equal(oid) {
					continue
				}
				if n := utf8.RuneCountInString(texts[i]); n > max {
					return lint.Failf("%s has %d characters (max %d)", x509cert.AttrName(oid), n, max)
				}
			}
			return lint.PassResult
		},
	}
}

func init() {
	// 1. explicitText length cap (RFC 5280 §4.2.1.4: 200 characters) —
	// e_rfc_ext_cp_explicit_text_too_long of Table 11.
	register(&lint.Lint{
		Name:          "e_rfc_ext_cp_explicit_text_too_long",
		Description:   "CertificatePolicies explicitText must not exceed 200 characters",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateRFC5280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.Policies) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, p := range c.Policies {
				for _, et := range p.ExplicitText {
					if n := len([]rune(et.Decode())); n > 200 {
						return lint.Failf("explicitText has %d characters", n)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 2–7. X.520 upper bounds.
	register(maxLengthLint("e_subject_common_name_max_length", x509cert.OIDCommonName, 64))
	register(maxLengthLint("e_subject_organization_name_max_length", x509cert.OIDOrganizationName, 64))
	register(maxLengthLint("e_subject_organizational_unit_name_max_length", x509cert.OIDOrganizationalUnit, 64))
	register(maxLengthLint("e_subject_locality_name_max_length", x509cert.OIDLocalityName, 128))
	register(maxLengthLint("e_subject_state_name_max_length", x509cert.OIDStateOrProvinceName, 128))
	register(maxLengthLint("e_subject_serial_number_max_length", x509cert.OIDSerialNumber, 64))

	// 8. countryName must be exactly two letters.
	register(&lint.Lint{
		Name:          "e_subject_country_not_iso",
		Description:   "Subject countryName must be a 2-letter ISO 3166 code",
		Severity:      lint.Error,
		Source:        lint.SourceCABF,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateCABF,
		CheckApplies:  func(c *x509cert.Certificate) bool { return c.Subject.Count(x509cert.OIDCountryName) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.SubjectTexts()
			for i, atv := range c.Subject.Attributes() {
				if !atv.Type.Equal(x509cert.OIDCountryName) {
					continue
				}
				v := texts[i]
				if len(v) != 2 || !isLetters(v) {
					return lint.Failf("countryName %q is not a 2-letter code", v)
				}
			}
			return lint.PassResult
		},
	})

	// 9. countryName case: ISO codes are upper case.
	register(&lint.Lint{
		Name:          "e_subject_country_not_uppercase",
		Description:   "Subject countryName codes must be upper case",
		Severity:      lint.Error,
		Source:        lint.SourceCABF,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateCABF,
		CheckApplies:  func(c *x509cert.Certificate) bool { return c.Subject.Count(x509cert.OIDCountryName) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.SubjectTexts()
			for i, atv := range c.Subject.Attributes() {
				if !atv.Type.Equal(x509cert.OIDCountryName) {
					continue
				}
				v := texts[i]
				if len(v) == 2 && isLetters(v) && v != strings.ToUpper(v) {
					return lint.Failf("countryName %q is not upper case", v)
				}
			}
			return lint.PassResult
		},
	})

	// 10–14. DNS label/name syntax limits.
	register(&lint.Lint{
		Name:          "e_dns_label_too_long",
		Description:   "DNS labels must not exceed 63 octets",
		Severity:      lint.Error,
		Source:        lint.SourceRFC1034,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateRFC3280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.DNSNameTexts()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, l := range c.DNSLabels() {
				if len(l) > idna.MaxLabelLength {
					return lint.Failf("label %q has %d octets", l, len(l))
				}
			}
			return lint.PassResult
		},
	})
	register(&lint.Lint{
		Name:          "e_dns_name_too_long",
		Description:   "DNS names must not exceed 253 octets",
		Severity:      lint.Error,
		Source:        lint.SourceRFC1034,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateRFC3280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.DNSNameTexts()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, gns := range [2][]x509cert.GeneralName{c.SAN, c.IAN} {
				for _, gn := range gns {
					if gn.Kind == x509cert.GNDNSName && len(gn.Bytes) > idna.MaxDomainLength {
						return lint.Failf("name has %d octets", len(gn.Bytes))
					}
				}
			}
			return lint.PassResult
		},
	})
	register(&lint.Lint{
		Name:          "e_dns_label_leading_hyphen",
		Description:   "DNS labels must not begin with a hyphen",
		Severity:      lint.Error,
		Source:        lint.SourceRFC1034,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateRFC3280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.DNSNameTexts()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			return hyphenCheck(c, true)
		},
	})
	register(&lint.Lint{
		Name:          "e_dns_label_trailing_hyphen",
		Description:   "DNS labels must not end with a hyphen",
		Severity:      lint.Error,
		Source:        lint.SourceRFC1034,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateRFC3280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.DNSNameTexts()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			return hyphenCheck(c, false)
		},
	})
	register(&lint.Lint{
		Name:          "e_dns_double_hyphen_no_ace",
		Description:   "DNS labels with hyphens in positions 3–4 must carry the ACE prefix",
		Severity:      lint.Error,
		Source:        lint.SourceIDNA,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateIDNA,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.DNSNameTexts()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, l := range c.DNSLabels() {
				if len(l) >= 4 && l[2] == '-' && l[3] == '-' && !strings.HasPrefix(l, punycode.ACEPrefix) {
					return lint.Failf("label %q has hyphen-34 without ACE prefix", l)
				}
			}
			return lint.PassResult
		},
	})

	// 15. Empty SAN DNSName.
	register(&lint.Lint{
		Name:          "e_san_dns_name_empty",
		Description:   "SAN DNSNames must not be empty",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateRFC5280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.SAN) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, gn := range c.SAN {
				if gn.Kind == x509cert.GNDNSName && len(gn.Bytes) == 0 {
					return lint.Failf("empty DNSName in SAN")
				}
			}
			return lint.PassResult
		},
	})

	// 16. Empty Subject attribute values.
	register(&lint.Lint{
		Name:          "e_subject_empty_attribute_value",
		Description:   "Subject DN attribute values must not be empty",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateRFC5280,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.Subject.Attributes() {
				if len(atv.Value.Bytes) == 0 {
					return lint.Failf("%s is empty", x509cert.AttrName(atv.Type))
				}
			}
			return lint.PassResult
		},
	})

	// 17. RFC822Name shape.
	register(&lint.Lint{
		Name:          "e_rfc822_name_malformed",
		Description:   "SAN RFC822Names must contain exactly one '@' with non-empty local and domain parts",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T3IllegalFormat,
		EffectiveDate: dateRFC5280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.EmailAddresses()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, e := range c.EmailAddresses() {
				at := strings.Count(e, "@")
				if at != 1 {
					return lint.Failf("email %q has %d '@' characters", e, at)
				}
				parts := strings.SplitN(e, "@", 2)
				if parts[0] == "" || parts[1] == "" {
					return lint.Failf("email %q has an empty part", e)
				}
			}
			return lint.PassResult
		},
	})
}

func isLetters(s string) bool {
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
			return false
		}
	}
	return true
}

func hyphenCheck(c *x509cert.Certificate, leading bool) lint.Result {
	for _, l := range c.DNSLabels() {
		if l == "" || l == "*" {
			continue
		}
		if leading && l[0] == '-' {
			return lint.Failf("label %q begins with hyphen", l)
		}
		if !leading && l[len(l)-1] == '-' {
			return lint.Failf("label %q ends with hyphen", l)
		}
	}
	return lint.PassResult
}
