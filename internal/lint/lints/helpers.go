// Package lints implements the 95 Unicert constraint lints of the
// paper's §3.1: 45 rules modeled on the coverage of existing linters
// plus the 50 new Unicode/IDN-specific rules (marked New). Lints
// register themselves into lint.Global at init time.
package lints

import (
	"time"

	"repro/internal/asn1der"
	"repro/internal/lint"
	"repro/internal/strenc"
	"repro/internal/x509cert"
)

// Effective dates, per standard publication (§3.1.2).
var (
	dateRFC3280 = time.Date(2002, 4, 1, 0, 0, 0, 0, time.UTC)
	dateRFC5280 = time.Date(2008, 5, 1, 0, 0, 0, 0, time.UTC)
	dateIDNA    = time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC)
	dateCABF    = time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)
	dateComm    = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	dateRFC8399 = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	dateRFC9549 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	dateRFC9598 = time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
)

func register(l *lint.Lint) { lint.Global.Register(l) }

// hasSAN reports whether the certificate carries a SubjectAltName.
func hasSAN(c *x509cert.Certificate) bool { return len(c.SAN) > 0 }

// isPrintableOrUTF8 reports whether the string tag is one of the two
// DirectoryString encodings RFC 5280 permits CAs to use for new
// certificates.
func isPrintableOrUTF8(tag int) bool {
	return tag == asn1der.TagPrintableString || tag == asn1der.TagUTF8String
}

// directoryStringTags are the legal DirectoryString CHOICE arms.
func isDirectoryStringTag(tag int) bool {
	switch tag {
	case asn1der.TagPrintableString, asn1der.TagUTF8String,
		asn1der.TagTeletexString, asn1der.TagBMPString, asn1der.TagUniversalString:
		return true
	}
	return false
}

// charsetViolation returns the first rune of s outside the declared
// string type's charset, if any.
func charsetViolation(tag int, s string) (rune, bool) {
	ok, bad := strenc.StringType(tag).ValidString(s)
	if ok {
		return 0, false
	}
	return bad, true
}

// appliesToSubjectDN is the common CheckApplies for subject lints.
func appliesToSubjectDN(c *x509cert.Certificate) bool { return !c.Subject.Empty() }

func appliesToIssuerDN(c *x509cert.Certificate) bool { return !c.Issuer.Empty() }
