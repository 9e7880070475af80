// Package idna implements the IDNA2008-style domain-name validation
// the paper's F1 lints depend on: LDH label syntax (RFC 1034/5890),
// A-label ↔ U-label conversion with round-trip checking, disallowed
// code-point detection per the IDNA derived properties (RFC 5892,
// approximated over the general categories), the hyphen restrictions,
// and the length limits.
package idna

import (
	"errors"
	"fmt"
	"strings"
	"unicode"

	"repro/internal/punycode"
	"repro/internal/uni"
)

// Limits from RFC 1035 / RFC 5890.
const (
	MaxLabelLength  = 63
	MaxDomainLength = 253
)

// Label-level validation errors.
var (
	ErrEmptyLabel         = errors.New("idna: empty label")
	ErrLabelTooLong       = errors.New("idna: label exceeds 63 octets")
	ErrDomainTooLong      = errors.New("idna: domain exceeds 253 octets")
	ErrLeadingHyphen      = errors.New("idna: label begins with hyphen")
	ErrTrailingHyphen     = errors.New("idna: label ends with hyphen")
	ErrHyphen34           = errors.New("idna: label has hyphens in positions 3 and 4 without ACE prefix semantics")
	ErrBadLDHCharacter    = errors.New("idna: character outside letter-digit-hyphen repertoire")
	ErrUnconvertible      = errors.New("idna: A-label cannot be converted to Unicode")
	ErrDisallowedRune     = errors.New("idna: disallowed code point in U-label")
	ErrNotNFC             = errors.New("idna: U-label is not in NFC")
	ErrNonCanonicalALabel = errors.New("idna: A-label is not the canonical encoding of its U-label")
	ErrBidiViolation      = errors.New("idna: label violates the Bidi rule")
)

// ValidateLDHLabel checks the RFC 1034 preferred-name syntax for one
// ASCII label, as RFC 5280 requires of DNSNames.
func ValidateLDHLabel(label string) error {
	if label == "" {
		return ErrEmptyLabel
	}
	if len(label) > MaxLabelLength {
		return ErrLabelTooLong
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-':
		default:
			return fmt.Errorf("%w: %q", ErrBadLDHCharacter, rune(c))
		}
	}
	if label[0] == '-' {
		return ErrLeadingHyphen
	}
	if label[len(label)-1] == '-' {
		return ErrTrailingHyphen
	}
	if len(label) >= 4 && label[2] == '-' && label[3] == '-' && !strings.HasPrefix(strings.ToLower(label), punycode.ACEPrefix) {
		return ErrHyphen34
	}
	return nil
}

// disallowed reports whether r is DISALLOWED under our approximation of
// the RFC 5892 derived properties: PVALID requires a lowercase letter,
// digit, mark, or a small set of CONTEXT-permitted characters; symbols,
// punctuation, uppercase (mapped away by IDNA2008), controls, and
// format characters are excluded.
func disallowed(r rune) bool {
	switch {
	case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
		return false
	case r < 0x80:
		return true // remaining ASCII: uppercase, punctuation, controls
	case uni.IsControl(r), uni.IsBidiControl(r), uni.IsInvisibleLayout(r):
		return true
	case unicode.IsUpper(r) || unicode.IsTitle(r):
		return true // IDNA2008 disallows unmapped uppercase
	case unicode.IsLetter(r), unicode.IsDigit(r), unicode.IsMark(r):
		return false
	case r == 0x00B7, r == 0x0375, r == 0x05F3, r == 0x05F4, r == 0x30FB:
		return false // CONTEXTO examples
	case r == 0x200C || r == 0x200D:
		return true // ZWNJ/ZWJ are CONTEXTJ; without context data, reject
	default:
		return true
	}
}

// ValidateULabel checks a Unicode label against the IDNA2008 rules:
// NFC form, no disallowed code points, hyphen restrictions, length of
// the corresponding A-label.
func ValidateULabel(label string) error {
	if label == "" {
		return ErrEmptyLabel
	}
	if !uni.IsNFC(label) {
		return ErrNotNFC
	}
	for _, r := range label {
		if disallowed(r) {
			return fmt.Errorf("%w: U+%04X", ErrDisallowedRune, r)
		}
	}
	if strings.HasPrefix(label, "-") {
		return ErrLeadingHyphen
	}
	if strings.HasSuffix(label, "-") {
		return ErrTrailingHyphen
	}
	if err := bidiRule(label); err != nil {
		return err
	}
	var buf [64]byte
	a, err := punycode.AppendLabel(buf[:0], label)
	if err != nil {
		return fmt.Errorf("idna: %v", err)
	}
	if len(a) > MaxLabelLength {
		return ErrLabelTooLong
	}
	return nil
}

// bidiRule applies a practical subset of RFC 5893: a label containing
// right-to-left characters must not mix in left-to-right letters, and a
// label starting with a digit must not contain RTL characters.
func bidiRule(label string) error {
	hasRTL, hasLTR := false, false
	for _, r := range label {
		switch {
		case unicode.In(r, unicode.Hebrew, unicode.Arabic, unicode.Syriac, unicode.Thaana):
			hasRTL = true
		case unicode.IsLetter(r) && r < 0x0590:
			hasLTR = true
		case unicode.IsLetter(r) && unicode.In(r, unicode.Latin, unicode.Greek, unicode.Cyrillic, unicode.Han, unicode.Hangul, unicode.Hiragana, unicode.Katakana):
			hasLTR = true
		}
	}
	if hasRTL && hasLTR {
		return ErrBidiViolation
	}
	return nil
}

// ValidateALabel checks an "xn--" label: LDH syntax, convertibility,
// post-conversion U-label validity, and canonical round-trip. This is
// the check whose absence produces the paper's 27,102 F1 cases.
func ValidateALabel(label string) error {
	if err := ValidateLDHLabel(label); err != nil && !errors.Is(err, ErrHyphen34) {
		return err
	}
	lower := strings.ToLower(label)
	if !strings.HasPrefix(lower, punycode.ACEPrefix) {
		return fmt.Errorf("idna: %q lacks ACE prefix", label)
	}
	u, err := punycode.Decode(lower[len(punycode.ACEPrefix):])
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnconvertible, err)
	}
	if err := ValidateULabel(u); err != nil {
		return err
	}
	var buf [64]byte
	back, err := punycode.AppendLabel(buf[:0], u)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNonCanonicalALabel, err)
	}
	if string(back) != lower {
		return ErrNonCanonicalALabel
	}
	return nil
}

// ToUnicode converts a domain name in A-label form to U-labels,
// reporting the first conversion failure.
func ToUnicode(domain string) (string, error) {
	labels := strings.Split(domain, ".")
	for i, l := range labels {
		u, err := punycode.DecodeLabel(l)
		if err != nil {
			return "", fmt.Errorf("idna: label %q: %w", l, err)
		}
		labels[i] = u
	}
	return strings.Join(labels, "."), nil
}

// ToASCII converts a domain name with U-labels to its A-label form.
func ToASCII(domain string) (string, error) {
	labels := strings.Split(domain, ".")
	total := 0
	for i, l := range labels {
		a, err := punycode.EncodeLabel(strings.ToLower(l))
		if err != nil {
			return "", fmt.Errorf("idna: label %q: %w", l, err)
		}
		if len(a) > MaxLabelLength {
			return "", ErrLabelTooLong
		}
		labels[i] = a
		total += len(a) + 1
	}
	if total-1 > MaxDomainLength {
		return "", ErrDomainTooLong
	}
	return strings.Join(labels, "."), nil
}

// IsIDN reports whether domain contains at least one A-label or
// non-ASCII label — the membership test behind the paper's IDNCert
// class.
func IsIDN(domain string) bool {
	for _, l := range strings.Split(domain, ".") {
		if strings.HasPrefix(strings.ToLower(l), punycode.ACEPrefix) || !punycode.IsASCII(l) {
			return true
		}
	}
	return false
}

// ValidateDNSName checks a full DNSName as RFC 5280 + IDNA require:
// total length, per-label LDH syntax (wildcard permitted leftmost), and
// full A-label validation for xn-- labels.
func ValidateDNSName(name string) error {
	if name == "" {
		return ErrEmptyLabel
	}
	if len(name) > MaxDomainLength {
		return ErrDomainTooLong
	}
	labels := strings.Split(strings.TrimSuffix(name, "."), ".")
	for i, l := range labels {
		if i == 0 && l == "*" {
			continue
		}
		if strings.HasPrefix(strings.ToLower(l), punycode.ACEPrefix) {
			if err := ValidateALabel(l); err != nil {
				return fmt.Errorf("label %q: %w", l, err)
			}
			continue
		}
		if err := ValidateLDHLabel(l); err != nil {
			return fmt.Errorf("label %q: %w", l, err)
		}
	}
	return nil
}

// idnCcTLDs lists the delegated internationalized country-code TLD
// A-labels the Table 6 monitor probes use (a representative subset of
// the IANA root zone).
var idnCcTLDs = map[string]string{
	"xn--fiqs8s":        "中国",       // China (simplified)
	"xn--fiqz9s":        "中國",       // China (traditional)
	"xn--p1ai":          "рф",       // Russian Federation
	"xn--wgbh1c":        "مصر",      // Egypt
	"xn--j6w193g":       "香港",       // Hong Kong
	"xn--90a3ac":        "срб",      // Serbia
	"xn--yfro4i67o":     "新加坡",      // Singapore
	"xn--mgbaam7a8h":    "امارات",   // UAE
	"xn--kprw13d":       "台湾",       // Taiwan (simplified)
	"xn--node":          "გე",       // Georgia
	"xn--e1a4c":         "ею",       // EU (Cyrillic)
	"xn--qxam":          "ελ",       // Greece
	"xn--h2brj9c":       "भारत",     // India (Devanagari)
	"xn--mgberp4a5d4ar": "السعودية", // Saudi Arabia
}

// IsIDNccTLD reports whether the domain's top-level label is a
// delegated internationalized ccTLD (in A-label or U-label form).
func IsIDNccTLD(domain string) bool {
	tld := strings.TrimSuffix(strings.ToLower(domain), ".")
	tld = tld[strings.LastIndexByte(tld, '.')+1:]
	if _, ok := idnCcTLDs[tld]; ok {
		return true
	}
	for _, u := range idnCcTLDs {
		if tld == u {
			return true
		}
	}
	return false
}
