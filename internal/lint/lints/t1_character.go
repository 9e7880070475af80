package lints

// T1 "Invalid Character" lints: inadequate character-range checks on
// field values (§4.3.1). 22 lints, 10 of them new.

import (
	"strings"
	"unicode/utf8"

	"repro/internal/asn1der"
	"repro/internal/idna"
	"repro/internal/lint"
	"repro/internal/punycode"
	"repro/internal/strenc"
	"repro/internal/uni"
	"repro/internal/x509cert"
)

func init() {
	// 1. Non-printable characters (C0, DEL) in Subject DN values — the
	// subject_dn_not_printable_characters lint of Table 11.
	register(&lint.Lint{
		Name:          "e_rfc_subject_dn_not_printable_characters",
		Description:   "Subject DN attribute values must not contain control characters such as NUL, ESC, or DEL",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateRFC5280,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			return dnControlChars(c.Subject.Attributes(), c.SubjectTexts())
		},
	})

	// 2. Same check for the Issuer DN.
	register(&lint.Lint{
		Name:          "e_rfc_issuer_dn_not_printable_characters",
		Description:   "Issuer DN attribute values must not contain control characters",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateRFC5280,
		CheckApplies:  appliesToIssuerDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			return dnControlChars(c.Issuer.Attributes(), c.IssuerTexts())
		},
	})

	// 3. PrintableString charset violations in the Subject
	// (subject_printable_string_badalpha of Table 11).
	register(&lint.Lint{
		Name:          "e_rfc_subject_printable_string_badalpha",
		Description:   "PrintableString attribute values in the Subject must stay within the PrintableString repertoire",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateRFC3280,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			return printableBadAlpha(c.Subject)
		},
	})

	// 4. Same for the Issuer.
	register(&lint.Lint{
		Name:          "e_rfc_issuer_printable_string_badalpha",
		Description:   "PrintableString attribute values in the Issuer must stay within the PrintableString repertoire",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateRFC3280,
		CheckApplies:  appliesToIssuerDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			return printableBadAlpha(c.Issuer)
		},
	})

	// 5–6. Leading/trailing whitespace in Subject DN values (community
	// practice lints of Table 11).
	register(&lint.Lint{
		Name:          "w_community_subject_dn_leading_whitespace",
		Description:   "Subject DN attribute values should not begin with whitespace",
		Severity:      lint.Warning,
		Source:        lint.SourceCommunity,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateComm,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.SubjectTexts()
			for i, atv := range c.Subject.Attributes() {
				s := texts[i]
				if s != "" && (s[0] == ' ' || strings.IndexFunc(s[:1], uni.IsWhitespaceVariant) == 0) {
					return lint.Failf("%s begins with whitespace", x509cert.AttrName(atv.Type))
				}
			}
			return lint.PassResult
		},
	})
	register(&lint.Lint{
		Name:          "w_community_subject_dn_trailing_whitespace",
		Description:   "Subject DN attribute values should not end with whitespace",
		Severity:      lint.Warning,
		Source:        lint.SourceCommunity,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateComm,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.SubjectTexts()
			for i, atv := range c.Subject.Attributes() {
				s := texts[i]
				if s == "" {
					continue
				}
				last, _ := utf8.DecodeLastRuneInString(s)
				if last == ' ' || uni.IsWhitespaceVariant(last) {
					return lint.Failf("%s ends with whitespace", x509cert.AttrName(atv.Type))
				}
			}
			return lint.PassResult
		},
	})

	// 7. Bad characters in DNS labels (CA/B BRs preferred syntax).
	register(&lint.Lint{
		Name:          "e_cab_dns_bad_character_in_label",
		Description:   "DNSName labels must contain only letters, digits, and hyphens",
		Severity:      lint.Error,
		Source:        lint.SourceCABF,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateCABF,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.DNSNameTexts()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, name := range c.DNSNameTexts() {
				for _, r := range name {
					if r == '*' {
						continue
					}
					if !strenc.DNSNameValid(r) {
						return lint.Failf("DNSName %q contains %q", name, r)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 8. A-labels that cannot be converted to Unicode (F1-i).
	register(&lint.Lint{
		Name:          "e_rfc_dns_idn_malformed_unicode",
		Description:   "IDN A-labels in DNSNames must convert to valid Unicode",
		Severity:      lint.Error,
		Source:        lint.SourceIDNA,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateIDNA,
		CheckApplies:  hasIDNLabel,
		Run: func(c *x509cert.Certificate) lint.Result {
			return eachALabel(c, func(label, _ string, err error) lint.Result {
				if err != nil {
					return lint.Failf("label %q: %v", label, err)
				}
				return lint.PassResult
			})
		},
	})

	// 9. NEW: A-labels whose decoded form contains characters IDNA
	// disallows (F1-ii) — the paper's third-largest lint.
	register(&lint.Lint{
		Name:          "e_rfc_dns_idn_a2u_unpermitted_unichar",
		Description:   "Unicode forms of IDN labels must not contain characters disallowed by IDNA2008 (e.g. bidirectional controls)",
		Severity:      lint.Error,
		Source:        lint.SourceIDNA,
		Taxonomy:      lint.T1InvalidCharacter,
		New:           true,
		EffectiveDate: dateIDNA,
		CheckApplies:  hasIDNLabel,
		Run: func(c *x509cert.Certificate) lint.Result {
			return eachALabel(c, func(label, u string, err error) lint.Result {
				if err != nil {
					return lint.PassResult // covered by e_rfc_dns_idn_malformed_unicode
				}
				if err := idna.ValidateULabel(u); err != nil && err != idna.ErrNotNFC {
					return lint.Failf("label %q decodes to %q: %v", label, u, err)
				}
				return lint.PassResult
			})
		},
	})

	// 10. NEW: raw non-DNS Unicode inside SAN DNSNames.
	register(&lint.Lint{
		Name:          "e_ext_san_dns_contain_unpermitted_unichar",
		Description:   "SAN DNSNames must not embed characters outside the IA5 DNS repertoire",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.SAN) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, gn := range c.SAN {
				if gn.Kind != x509cert.GNDNSName {
					continue
				}
				for _, b := range gn.Bytes {
					if b >= 0x80 || b < 0x20 {
						return lint.Failf("DNSName contains byte 0x%02X", b)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 11. Same check for IssuerAltName DNSNames (covered by existing
	// linters' GeneralName rules).
	register(&lint.Lint{
		Name:          "e_ext_ian_dns_contain_unpermitted_unichar",
		Description:   "IAN DNSNames must not embed characters outside the IA5 DNS repertoire",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateRFC5280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.IAN) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, gn := range c.IAN {
				if gn.Kind != x509cert.GNDNSName {
					continue
				}
				for _, b := range gn.Bytes {
					if b >= 0x80 || b < 0x20 {
						return lint.Failf("IAN DNSName contains byte 0x%02X", b)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 12. NEW: bidirectional control characters anywhere in the DN.
	register(&lint.Lint{
		Name:          "e_subject_dn_contains_bidi_controls",
		Description:   "Subject DN values must not contain bidirectional control characters, which enable display-order spoofing",
		Severity:      lint.Error,
		Source:        lint.SourceIDNA,
		Taxonomy:      lint.T1InvalidCharacter,
		New:           true,
		EffectiveDate: dateIDNA,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.SubjectTexts()
			for i, atv := range c.Subject.Attributes() {
				for _, r := range texts[i] {
					if uni.IsBidiControl(r) {
						return lint.Failf("%s contains U+%04X", x509cert.AttrName(atv.Type), r)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 13. NEW: invisible layout characters (ZWSP etc.) in the DN.
	register(&lint.Lint{
		Name:          "e_subject_dn_contains_invisible_layout_chars",
		Description:   "Subject DN values must not contain invisible layout characters such as zero-width spaces",
		Severity:      lint.Error,
		Source:        lint.SourceIDNA,
		Taxonomy:      lint.T1InvalidCharacter,
		New:           true,
		EffectiveDate: dateIDNA,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.SubjectTexts()
			for i, atv := range c.Subject.Attributes() {
				for _, r := range texts[i] {
					if uni.IsInvisibleLayout(r) && !uni.IsBidiControl(r) {
						return lint.Failf("%s contains U+%04X", x509cert.AttrName(atv.Type), r)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 14. NEW: control characters inside SAN email addresses.
	register(&lint.Lint{
		Name:          "e_ext_san_email_contains_control_chars",
		Description:   "SAN RFC822Names must not contain control characters",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.EmailAddresses()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, e := range c.EmailAddresses() {
				for _, r := range e {
					if uni.IsControl(r) {
						return lint.Failf("email %q contains U+%04X", e, r)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 15. NEW: unpermitted characters inside SAN URIs.
	register(&lint.Lint{
		Name:          "e_ext_san_uri_contains_unpermitted_chars",
		Description:   "SAN URIs must not contain control characters or raw spaces",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.URIs()) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, u := range c.URIs() {
				for _, r := range u {
					if uni.IsControl(r) || r == ' ' || r >= 0x80 {
						return lint.Failf("URI %q contains U+%04X", u, r)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 16. NumericString repertoire.
	register(&lint.Lint{
		Name:          "e_numeric_string_badalpha",
		Description:   "NumericString values must contain only digits and space",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateRFC3280,
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.AttributeTexts()
			for i, atv := range c.AllAttributes() {
				if atv.Value.Tag != asn1der.TagNumericString {
					continue
				}
				if r, bad := charsetViolation(atv.Value.Tag, texts[i]); bad {
					return lint.Failf("%s NumericString contains %q", x509cert.AttrName(atv.Type), r)
				}
			}
			return lint.PassResult
		},
	})

	// 17. IA5String with 8-bit content.
	register(&lint.Lint{
		Name:          "e_ia5_string_contains_8bit",
		Description:   "IA5String values must stay within the 7-bit IA5 repertoire",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateRFC3280,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.AllAttributes() {
				if atv.Value.Tag != asn1der.TagIA5String {
					continue
				}
				for _, b := range atv.Value.Bytes {
					if b >= 0x80 {
						return lint.Failf("%s IA5String contains byte 0x%02X", x509cert.AttrName(atv.Type), b)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 18. NEW: disallowed control characters in UTF8String values.
	register(&lint.Lint{
		Name:          "e_utf8_string_contains_disallowed_controls",
		Description:   "UTF8String DN values must not contain C0/C1 control characters",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		New:           true,
		EffectiveDate: dateRFC5280,
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.AttributeTexts()
			for i, atv := range c.AllAttributes() {
				if atv.Value.Tag != asn1der.TagUTF8String {
					continue
				}
				for _, r := range texts[i] {
					if uni.IsControl(r) {
						return lint.Failf("%s UTF8String contains U+%04X", x509cert.AttrName(atv.Type), r)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 19. NEW: surrogate halves in BMPString content.
	register(&lint.Lint{
		Name:          "e_bmp_string_contains_surrogate_halves",
		Description:   "BMPString values must not contain UTF-16 surrogate code units",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		New:           true,
		EffectiveDate: dateRFC5280,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.AllAttributes() {
				if atv.Value.Tag != asn1der.TagBMPString {
					continue
				}
				b := atv.Value.Bytes
				for i := 0; i+1 < len(b); i += 2 {
					u := uint16(b[i])<<8 | uint16(b[i+1])
					if u >= 0xD800 && u <= 0xDFFF {
						return lint.Failf("%s BMPString contains surrogate 0x%04X", x509cert.AttrName(atv.Type), u)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 20. NEW: replacement characters betray upstream decode failures.
	register(&lint.Lint{
		Name:          "w_subject_dn_contains_replacement_char",
		Description:   "Subject DN values should not contain U+FFFD, which indicates a lossy transcoding during issuance",
		Severity:      lint.Warning,
		Source:        lint.SourceCommunity,
		Taxonomy:      lint.T1InvalidCharacter,
		New:           true,
		EffectiveDate: dateComm,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, atv := range c.Subject.Attributes() {
				// Inspect raw bytes, not the replace-decoded string, so we
				// only flag genuine U+FFFD content.
				if atv.Value.Tag == asn1der.TagUTF8String && strings.ContainsRune(string(atv.Value.Bytes), '�') {
					return lint.Failf("%s contains U+FFFD", x509cert.AttrName(atv.Type))
				}
			}
			return lint.PassResult
		},
	})

	// 21. NEW: control characters in CRL distribution point URIs — the
	// revocation-disable primitive of §5.2.
	register(&lint.Lint{
		Name:          "e_crl_dp_contains_control_chars",
		Description:   "CRL distribution point URIs must not contain control characters",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  func(c *x509cert.Certificate) bool { return len(c.CRLDistributionPoints) > 0 },
		Run: func(c *x509cert.Certificate) lint.Result {
			for _, gn := range c.CRLDistributionPoints {
				// As IA5 text a byte >= 0x80 reads as U+FFFD, never
				// a control, so the raw bytes answer without decoding.
				for _, b := range gn.Bytes {
					if b < 0x80 && uni.IsControl(rune(b)) {
						return lint.Failf("CRL DP contains U+%04X", b)
					}
				}
			}
			return lint.PassResult
		},
	})

	// 22. TeletexString content outside its charset.
	register(&lint.Lint{
		Name:          "e_teletex_string_outside_charset",
		Description:   "TeletexString values must stay within the T.61 graphic repertoire",
		Severity:      lint.Error,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T1InvalidCharacter,
		EffectiveDate: dateRFC3280,
		Run: func(c *x509cert.Certificate) lint.Result {
			texts := c.AttributeTexts()
			for i, atv := range c.AllAttributes() {
				if atv.Value.Tag != asn1der.TagTeletexString {
					continue
				}
				if r, bad := charsetViolation(atv.Value.Tag, texts[i]); bad {
					return lint.Failf("%s TeletexString contains %q", x509cert.AttrName(atv.Type), r)
				}
			}
			return lint.PassResult
		},
	})
}

func dnControlChars(atvs []x509cert.ATV, texts []string) lint.Result {
	for i, atv := range atvs {
		for _, r := range texts[i] {
			if uni.IsC0(r) {
				return lint.Failf("%s contains control character U+%04X", x509cert.AttrName(atv.Type), r)
			}
		}
	}
	return lint.PassResult
}

func printableBadAlpha(dn x509cert.DN) lint.Result {
	for _, atv := range dn.Attributes() {
		if atv.Value.Tag != asn1der.TagPrintableString {
			continue
		}
		// Check the raw bytes: PrintableString is ASCII, so any byte
		// outside the charset is a violation even if it decodes.
		for _, b := range atv.Value.Bytes {
			if !strenc.TypePrintableString.ValidRune(rune(b)) {
				return lint.Failf("%s PrintableString contains byte 0x%02X", x509cert.AttrName(atv.Type), b)
			}
		}
	}
	return lint.PassResult
}

// eachALabel runs check on each A-label of c's DNS names, with its
// decoded U-label or decode error, and returns the first failure.
func eachALabel(c *x509cert.Certificate, check func(label, u string, err error) lint.Result) lint.Result {
	for _, label := range c.DNSLabels() {
		if strings.HasPrefix(label, punycode.ACEPrefix) {
			u, err := punycode.Decode(label[len(punycode.ACEPrefix):])
			if r := check(label, u, err); r.Status == lint.Fail {
				return r
			}
		}
	}
	return lint.PassResult
}

func hasIDNLabel(c *x509cert.Certificate) bool {
	for _, label := range c.DNSLabels() {
		if strings.HasPrefix(label, punycode.ACEPrefix) {
			return true
		}
	}
	return false
}
