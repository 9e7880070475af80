// Package strenc implements the character encodings and decodings that
// appear in X.509 certificates: the five decoding methods the paper's
// methodology (§3.2) infers from TLS-library behaviour (ASCII, ISO-8859-1,
// UTF-8, UCS-2, UTF-16) plus T.61 for TeletexString, together with the
// three special-character handling modes (truncation, replacement,
// escaping) and a strict mode that reports undecodable input.
//
// It also encodes the per-ASN.1-string-type legal character sets of
// RFC 5280 / X.680 (Table 8 of the paper), which the linter and the
// certificate generator both consume.
package strenc

import (
	"fmt"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Method identifies one of the decoding methods the paper's differential
// harness distinguishes between.
type Method int

// Decoding methods, in the order the paper lists them.
const (
	ASCII Method = iota
	ISO88591
	UTF8
	UCS2
	UTF16BE
	T61
	numMethods
)

// Methods lists every decoding method, in a stable order, for harnesses
// that sweep the full set.
func Methods() []Method {
	return []Method{ASCII, ISO88591, UTF8, UCS2, UTF16BE, T61}
}

func (m Method) String() string {
	switch m {
	case ASCII:
		return "ASCII"
	case ISO88591:
		return "ISO-8859-1"
	case UTF8:
		return "UTF-8"
	case UCS2:
		return "UCS-2"
	case UTF16BE:
		return "UTF-16"
	case T61:
		return "T.61"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Handling selects what a decoder does with byte sequences that are not
// valid under the chosen Method. Strict reports an error; the other three
// are the special-character handling modes of §3.2.
type Handling int

const (
	// Strict fails the whole decode on the first invalid sequence.
	Strict Handling = iota
	// Truncate drops invalid sequences from the output.
	Truncate
	// Replace substitutes U+FFFD for each invalid byte.
	Replace
	// Escape renders each invalid byte as a \xNN hexadecimal escape.
	Escape
)

// Handlings lists every handling mode in a stable order.
func Handlings() []Handling { return []Handling{Strict, Truncate, Replace, Escape} }

func (h Handling) String() string {
	switch h {
	case Strict:
		return "strict"
	case Truncate:
		return "truncate"
	case Replace:
		return "replace"
	case Escape:
		return "escape"
	default:
		return fmt.Sprintf("Handling(%d)", int(h))
	}
}

// ReplacementChar is the substitute used by the Replace handling mode.
const ReplacementChar = '�'

// DecodeError reports an undecodable byte sequence under Strict handling.
type DecodeError struct {
	Method Method
	Offset int
	Byte   byte
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("strenc: byte 0x%02X at offset %d is not valid %s", e.Byte, e.Offset, e.Method)
}

// Decode interprets b according to method m, applying handling h to
// invalid sequences. Under Strict, the first invalid sequence aborts the
// decode with a *DecodeError.
func Decode(m Method, h Handling, b []byte) (string, error) {
	var sb strings.Builder
	// A UCS-2 or UTF-16 unit may decode longer than its two bytes, and
	// MaxDecodedLen is exact for the BMP there. The byte-oriented methods
	// keep len(b), so a string never pins room it does not use.
	if m == UCS2 || m == UTF16BE {
		sb.Grow(MaxDecodedLen(m, b))
	} else {
		sb.Grow(len(b))
	}
	if err := DecodeTo(&sb, m, h, b); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// DecodeTo is Decode appending to sb, so that many values can share one
// allocation. On error sb keeps whatever was decoded before the invalid
// sequence.
func DecodeTo(sb *strings.Builder, m Method, h Handling, b []byte) error {
	switch m {
	case ASCII:
		return decodeASCII(sb, h, b)
	case ISO88591:
		decodeLatin1(sb, b)
		return nil
	case UTF8:
		return decodeUTF8(sb, h, b)
	case UCS2:
		return decodeUCS2(sb, h, b)
	case UTF16BE:
		return decodeUTF16(sb, h, b)
	case T61:
		return decodeT61(sb, h, b)
	default:
		return fmt.Errorf("strenc: unknown method %d", int(m))
	}
}

func invalid(h Handling, sb *strings.Builder, m Method, off int, c byte) error {
	switch h {
	case Strict:
		return &DecodeError{Method: m, Offset: off, Byte: c}
	case Truncate:
		// drop
	case Replace:
		sb.WriteRune(ReplacementChar)
	case Escape:
		// Written by hand, not with fmt, so that sb does not escape.
		const hex = "0123456789ABCDEF"
		sb.WriteString(`\x`)
		sb.WriteByte(hex[c>>4])
		sb.WriteByte(hex[c&0xF])
	}
	return nil
}

func decodeASCII(sb *strings.Builder, h Handling, b []byte) error {
	for i, c := range b {
		if c < 0x80 {
			sb.WriteByte(c)
			continue
		}
		if err := invalid(h, sb, ASCII, i, c); err != nil {
			return err
		}
	}
	return nil
}

func decodeLatin1(sb *strings.Builder, b []byte) {
	// Every byte is a defined ISO-8859-1 code point, so Latin-1 decoding
	// never fails: this is exactly the over-tolerance the paper observes
	// in libraries that fall back to it.
	for _, c := range b {
		sb.WriteRune(rune(c))
	}
}

func decodeUTF8(sb *strings.Builder, h Handling, b []byte) error {
	if utf8.Valid(b) {
		sb.Write(b)
		return nil
	}
	for i := 0; i < len(b); {
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			if err := invalid(h, sb, UTF8, i, b[i]); err != nil {
				return err
			}
			i++
			continue
		}
		sb.WriteRune(r)
		i += size
	}
	return nil
}

func decodeUCS2(sb *strings.Builder, h Handling, b []byte) error {
	n := len(b) - len(b)%2
	for i := 0; i < n; i += 2 {
		u := rune(b[i])<<8 | rune(b[i+1])
		if u >= 0xD800 && u <= 0xDFFF {
			// UCS-2 has no surrogate mechanism: a surrogate code unit is
			// an invalid character, not half of a pair.
			if err := invalid(h, sb, UCS2, i, b[i]); err != nil {
				return err
			}
			continue
		}
		sb.WriteRune(u)
	}
	if n < len(b) {
		return invalid(h, sb, UCS2, n, b[n])
	}
	return nil
}

func decodeUTF16(sb *strings.Builder, h Handling, b []byte) error {
	n := len(b) - len(b)%2
	// at decodes the unit at b[i:] as utf16.Decode does: a pair of
	// surrogates joins, an unpaired one is U+FFFD (ok false).
	at := func(i int) (r rune, size int, ok bool) {
		r = rune(b[i])<<8 | rune(b[i+1])
		if !utf16.IsSurrogate(r) {
			return r, 2, true
		}
		if i+2 < n {
			if r = utf16.DecodeRune(r, rune(b[i+2])<<8|rune(b[i+3])); r != ReplacementChar {
				return r, 4, true
			}
		}
		return ReplacementChar, 2, false
	}
	if h == Strict {
		if n < len(b) {
			return &DecodeError{Method: UTF16BE, Offset: n, Byte: b[n]}
		}
		// Unpaired surrogates fail the decode before anything is written.
		for i, size, ok := 0, 0, true; i < n; i += size {
			if _, size, ok = at(i); !ok {
				return &DecodeError{Method: UTF16BE, Offset: i, Byte: b[i]}
			}
		}
	}
	// An invalid unit's offset is its rune index × 2.
	for i, runes := 0, 0; i < n; runes++ {
		r, size, _ := at(i)
		i += size
		if r == ReplacementChar && h != Replace {
			if err := invalid(h, sb, UTF16BE, runes*2, 0xD8); err != nil {
				return err
			}
			continue
		}
		sb.WriteRune(r)
	}
	if n < len(b) {
		return invalid(h, sb, UTF16BE, n, b[n])
	}
	return nil
}

// MaxDecodedLen bounds the length of what DecodeTo appends for b under
// Replace or Truncate: a UCS-2 or UTF-16 unit decodes to at most 3
// bytes, valid UTF-8 (under UTF8) and ASCII (under any method) to
// themselves, and any other byte to at most 3.
func MaxDecodedLen(m Method, b []byte) int {
	switch {
	case m == UCS2 || m == UTF16BE:
		return 3 * ((len(b) + 1) / 2)
	case utf8.Valid(b) && (m == UTF8 || utf8.RuneCount(b) == len(b)):
		return len(b)
	}
	return 3 * len(b)
}

// decodeT61 implements the commonly deployed simplification of T.61: the
// graphic characters of ISO 6937's primary set map through ASCII, and
// bytes in the C1/G1 area map through a Latin-oriented table. Real-world
// parsers (and the paper's subjects) treat TeletexString as Latin-1 or
// ASCII; we keep combining-accent handling (0xC0–0xCF prefix bytes),
// which is the one T.61 feature that changes observable output.
func decodeT61(sb *strings.Builder, h Handling, b []byte) error {
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch {
		case c < 0x80:
			sb.WriteByte(c)
		case c >= 0xC0 && c <= 0xCF && i+1 < len(b):
			// Combining diacritic prefix: compose with the following base
			// letter where we know the composition, else emit base alone.
			base := b[i+1]
			i++
			if r, ok := t61Pairs[[2]byte{c, base}]; ok {
				sb.WriteRune(r)
			} else if base < 0x80 {
				sb.WriteByte(base)
			} else if err := invalid(h, sb, T61, i, base); err != nil {
				return err
			}
		case c >= 0xA0:
			if r, ok := t61G1[c]; ok {
				sb.WriteRune(r)
			} else if err := invalid(h, sb, T61, i, c); err != nil {
				return err
			}
		default:
			if err := invalid(h, sb, T61, i, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// t61G1 maps the defined graphic bytes of the T.61 supplementary set.
var t61G1 = map[byte]rune{
	0xA0: ' ', 0xA1: '¡', 0xA2: '¢', 0xA3: '£', 0xA4: '$', 0xA5: '¥',
	0xA6: '#', 0xA7: '§', 0xA8: '¤', 0xAB: '«', 0xB0: '°', 0xB1: '±',
	0xB2: '²', 0xB3: '³', 0xB4: '×', 0xB5: 'µ', 0xB6: '¶', 0xB7: '·',
	0xB8: '÷', 0xBB: '»', 0xBC: '¼', 0xBD: '½', 0xBE: '¾', 0xBF: '¿',
	0xE1: 'Æ', 0xE2: 'Đ', 0xE6: 'Ĳ', 0xE8: 'Ł', 0xE9: 'Ø', 0xEA: 'Œ',
	0xEC: 'Þ', 0xF1: 'æ', 0xF2: 'đ', 0xF3: 'ð', 0xF6: 'ĳ', 0xF8: 'ł',
	0xF9: 'ø', 0xFA: 'œ', 0xFB: 'ß', 0xFC: 'þ',
}

// t61Pairs composes a diacritic prefix with its base letter: the grave,
// acute, circumflex, tilde, macron-umlaut family, only the pairs that
// occur in deployed certificates.
var t61Pairs = map[[2]byte]rune{
	{0xC1, 'a'}: 'à', {0xC1, 'e'}: 'è', {0xC1, 'i'}: 'ì', {0xC1, 'o'}: 'ò', {0xC1, 'u'}: 'ù',
	{0xC1, 'A'}: 'À', {0xC1, 'E'}: 'È', {0xC1, 'O'}: 'Ò', {0xC1, 'U'}: 'Ù',
	{0xC2, 'a'}: 'á', {0xC2, 'e'}: 'é', {0xC2, 'i'}: 'í', {0xC2, 'o'}: 'ó', {0xC2, 'u'}: 'ú',
	{0xC2, 'A'}: 'Á', {0xC2, 'E'}: 'É', {0xC2, 'O'}: 'Ó', {0xC2, 'U'}: 'Ú', {0xC2, 'y'}: 'ý',
	{0xC3, 'a'}: 'â', {0xC3, 'e'}: 'ê', {0xC3, 'i'}: 'î', {0xC3, 'o'}: 'ô', {0xC3, 'u'}: 'û',
	{0xC4, 'a'}: 'ã', {0xC4, 'n'}: 'ñ', {0xC4, 'o'}: 'õ', {0xC4, 'N'}: 'Ñ',
	{0xC8, 'a'}: 'ä', {0xC8, 'e'}: 'ë', {0xC8, 'i'}: 'ï', {0xC8, 'o'}: 'ö', {0xC8, 'u'}: 'ü',
	{0xC8, 'A'}: 'Ä', {0xC8, 'O'}: 'Ö', {0xC8, 'U'}: 'Ü', {0xC8, 'y'}: 'ÿ',
	{0xCA, 'a'}: 'å', {0xCA, 'A'}: 'Å', {0xCA, 'u'}: 'ů',
	{0xCB, 'c'}: 'ç', {0xCB, 'C'}: 'Ç', {0xCB, 's'}: 'ş',
	{0xCD, 'o'}: 'ő', {0xCD, 'u'}: 'ű',
	{0xCF, 'c'}: 'č', {0xCF, 's'}: 'š', {0xCF, 'z'}: 'ž', {0xCF, 'r'}: 'ř',
	{0xCF, 'C'}: 'Č', {0xCF, 'S'}: 'Š', {0xCF, 'Z'}: 'Ž', {0xCF, 'e'}: 'ě',
}

// EncodeError reports a rune that cannot be represented under a Method.
type EncodeError struct {
	Method Method
	Rune   rune
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("strenc: rune %q (U+%04X) cannot be encoded as %s", e.Rune, e.Rune, e.Method)
}

// Encode converts s into the byte representation of method m. It fails
// with an *EncodeError on the first unrepresentable rune.
func Encode(m Method, s string) ([]byte, error) {
	switch m {
	case ASCII:
		out := make([]byte, 0, len(s))
		for _, r := range s {
			if r >= 0x80 {
				return nil, &EncodeError{Method: m, Rune: r}
			}
			out = append(out, byte(r))
		}
		return out, nil
	case ISO88591, T61:
		// We emit Latin-1 bytes for T.61 too: that is what every CA
		// implementation the paper measured actually produces.
		out := make([]byte, 0, len(s))
		for _, r := range s {
			if r > 0xFF {
				return nil, &EncodeError{Method: m, Rune: r}
			}
			out = append(out, byte(r))
		}
		return out, nil
	case UTF8:
		return []byte(s), nil
	case UCS2:
		out := make([]byte, 0, 2*len(s))
		for _, r := range s {
			if r > 0xFFFF || (r >= 0xD800 && r <= 0xDFFF) {
				return nil, &EncodeError{Method: m, Rune: r}
			}
			out = append(out, byte(r>>8), byte(r))
		}
		return out, nil
	case UTF16BE:
		units := utf16.Encode([]rune(s))
		out := make([]byte, 0, 2*len(units))
		for _, u := range units {
			out = append(out, byte(u>>8), byte(u))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("strenc: unknown method %d", int(m))
	}
}

// EncodeUnchecked is Encode without range validation: unrepresentable
// runes are narrowed modulo the code-unit width. The certificate
// generator uses it to craft the noncompliant byte sequences the paper's
// corpus contains (e.g. raw 0x80–0xFF bytes inside a PrintableString).
func EncodeUnchecked(m Method, s string) []byte {
	switch m {
	case ASCII, ISO88591, T61:
		out := make([]byte, 0, len(s))
		for _, r := range s {
			out = append(out, byte(r))
		}
		return out
	case UCS2:
		out := make([]byte, 0, 2*len(s))
		for _, r := range s {
			out = append(out, byte(r>>8), byte(r))
		}
		return out
	default:
		b, err := Encode(m, s)
		if err == nil {
			return b
		}
		// UTF-16 with lone surrogates in input: narrow per rune.
		out := make([]byte, 0, 2*len(s))
		for _, r := range s {
			if r <= 0xFFFF {
				out = append(out, byte(r>>8), byte(r))
			} else {
				u := utf16.Encode([]rune{r})
				for _, x := range u {
					out = append(out, byte(x>>8), byte(x))
				}
			}
		}
		return out
	}
}
