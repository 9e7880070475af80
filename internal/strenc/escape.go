package strenc

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// EscapeStyle selects one of the distinguished-name string
// representations whose escaping rules the paper's Table 5 audits.
type EscapeStyle int

const (
	// RFC1779 is the oldest DN string form: special characters are
	// quoted or backslash-escaped, with multi-character RDN separators.
	RFC1779 EscapeStyle = iota
	// RFC2253 is the LDAPv2-era form: leading '#', leading/trailing
	// space, and the special set ",+\"\\<>;" must be backslash-escaped.
	RFC2253
	// RFC4514 supersedes RFC 2253 with the same escape set plus the
	// requirement that NUL be escaped as \00.
	RFC4514
)

func (s EscapeStyle) String() string {
	switch s {
	case RFC1779:
		return "RFC1779"
	case RFC2253:
		return "RFC2253"
	case RFC4514:
		return "RFC4514"
	default:
		return fmt.Sprintf("EscapeStyle(%d)", int(s))
	}
}

// EscapeStyles lists the styles in standards-chronological order.
func EscapeStyles() []EscapeStyle { return []EscapeStyle{RFC1779, RFC2253, RFC4514} }

// specials2253 is the character set RFC 2253 §2.4 requires escaping for.
const specials2253 = `,+"\<>;`

// EscapeValue renders an attribute value for inclusion in a DN string
// under the given style, escaping exactly what the standard requires.
// A value that needs nothing escaped in any style is returned as is.
func EscapeValue(style EscapeStyle, v string) string {
	if v == "" || v[0] != ' ' && v[0] != '#' && v[len(v)-1] != ' ' &&
		!strings.ContainsAny(v, specials2253+"=\x00") && utf8.ValidString(v) {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v))
	for i, r := range v {
		switch {
		case r == 0 && style == RFC4514:
			sb.WriteString(`\00`)
		case strings.ContainsRune(specials2253, r):
			sb.WriteByte('\\')
			sb.WriteRune(r)
		case r == '=' && style == RFC1779:
			sb.WriteByte('\\')
			sb.WriteRune(r)
		case r == ' ' && (i == 0 || i == len(v)-1):
			sb.WriteByte('\\')
			sb.WriteRune(r)
		case r == '#' && i == 0:
			sb.WriteByte('\\')
			sb.WriteRune(r)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// NeedsEscaping reports whether v contains characters that the style
// requires escaping for when serialized into a DN string. A parser that
// emits v verbatim into an X.509-text representation when this returns
// true commits the "non-standard escaping" violation of Table 5.
func NeedsEscaping(style EscapeStyle, v string) bool {
	return EscapeValue(style, v) != v
}

// EscapeControls renders C0 controls and DEL in s as \xNN sequences,
// leaving all other characters intact. Several library models use it as
// their display-hardening step.
func EscapeControls(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, r := range s {
		if r < 0x20 || r == 0x7F {
			fmt.Fprintf(&sb, `\x%02X`, r)
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// ReplaceControls substitutes repl for the control characters PyOpenSSL's
// CRLDistributionPoints decoder rewrites (U+0000–U+0009, U+000B, U+000C,
// U+000E–U+001F, U+007F) — the behaviour behind the CRL-spoofing threat
// of §5.2.
func ReplaceControls(s string, repl rune) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, r := range s {
		if pyControlReplaced(r) {
			sb.WriteRune(repl)
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

func pyControlReplaced(r rune) bool {
	switch {
	case r >= 0x00 && r <= 0x09:
		return true
	case r == 0x0B || r == 0x0C:
		return true
	case r >= 0x0E && r <= 0x1F:
		return true
	case r == 0x7F:
		return true
	}
	return false
}
