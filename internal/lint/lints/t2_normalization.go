package lints

// T2 "Bad Normalization" lints: missing NFC normalization and
// non-canonical IDN forms (§4.3.1). 4 lints, 3 of them new.

import (
	"repro/internal/asn1der"
	"repro/internal/lint"
	"repro/internal/punycode"
	"repro/internal/uni"
	"repro/internal/x509cert"
)

func init() {
	// 1. NEW: IDN labels whose Unicode form is not NFC — the dominant
	// T2 case in the paper's corpus.
	register(&lint.Lint{
		Name:          "e_rfc_dns_idn_not_nfc_after_conversion",
		Description:   "IDN A-labels must decode to U-labels in Unicode Normalization Form C",
		Severity:      lint.Error,
		Source:        lint.SourceRFC8399,
		Taxonomy:      lint.T2BadNormalization,
		New:           true,
		EffectiveDate: dateRFC8399,
		CheckApplies:  hasIDNLabel,
		Run: func(c *x509cert.Certificate) lint.Result {
			return eachALabel(c, func(label, u string, err error) lint.Result {
				if err == nil && !uni.IsNFC(u) {
					return lint.Failf("label %q decodes to non-NFC %q", label, u)
				}
				return lint.PassResult
			})
		},
	})

	// 2. NEW: UTF8String Subject values not in NFC (RFC 5280 §4.1.2.4
	// attribute normalization SHOULD).
	register(&lint.Lint{
		Name:          "w_subject_utf8_not_nfc",
		Description:   "UTF8String Subject values should be normalized to NFC",
		Severity:      lint.Warning,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T2BadNormalization,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  appliesToSubjectDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			return utf8NotNFC(c.Subject.Attributes(), c.SubjectTexts())
		},
	})

	// 3. NEW: same for the Issuer.
	register(&lint.Lint{
		Name:          "w_issuer_utf8_not_nfc",
		Description:   "UTF8String Issuer values should be normalized to NFC",
		Severity:      lint.Warning,
		Source:        lint.SourceRFC5280,
		Taxonomy:      lint.T2BadNormalization,
		New:           true,
		EffectiveDate: dateRFC5280,
		CheckApplies:  appliesToIssuerDN,
		Run: func(c *x509cert.Certificate) lint.Result {
			return utf8NotNFC(c.Issuer.Attributes(), c.IssuerTexts())
		},
	})

	// 4. A-label that is not the canonical encoding of its U-label
	// (round-trip mismatch), the conversion-error channel of RFC 9598.
	register(&lint.Lint{
		Name:          "e_rfc_idn_punycode_roundtrip_mismatch",
		Description:   "IDN A-labels must round-trip: encode(decode(label)) must reproduce the label",
		Severity:      lint.Error,
		Source:        lint.SourceIDNA,
		Taxonomy:      lint.T2BadNormalization,
		EffectiveDate: dateIDNA,
		CheckApplies:  hasIDNLabel,
		Run: func(c *x509cert.Certificate) lint.Result {
			return eachALabel(c, func(label, u string, err error) lint.Result {
				if err != nil {
					return lint.PassResult
				}
				var buf [64]byte
				if back, err := punycode.AppendLabel(buf[:0], u); err != nil || string(back) != label {
					return lint.Failf("label %q round-trips to %q", label, string(back))
				}
				return lint.PassResult
			})
		},
	})
}

func utf8NotNFC(atvs []x509cert.ATV, texts []string) lint.Result {
	for i, atv := range atvs {
		if atv.Value.Tag != asn1der.TagUTF8String {
			continue
		}
		s := texts[i]
		if !uni.IsNFC(s) {
			return lint.Failf("%s value %q is not NFC", x509cert.AttrName(atv.Type), s)
		}
	}
	return lint.PassResult
}
