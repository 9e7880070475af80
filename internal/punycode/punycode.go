// Package punycode implements the Bootstring encoding of RFC 3492, the
// ASCII-compatible encoding that carries internationalized domain name
// labels ("xn--…" A-labels) through the DNS.
package punycode

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/intern"
)

// Bootstring parameters for Punycode, RFC 3492 §5.
const (
	base        = 36
	tMin        = 1
	tMax        = 26
	skew        = 38
	damp        = 700
	initialBias = 72
	initialN    = 128
	delimiter   = '-'
)

// ErrOverflow indicates arithmetic overflow during decoding, which RFC
// 3492 §6.4 requires implementations to detect; OpenSSL's failure to do
// so correctly is behind CVE-2022-3602.
var ErrOverflow = errors.New("punycode: overflow")

const maxRune = 0x10FFFF

func adapt(delta, numPoints int, firstTime bool) int {
	if firstTime {
		delta /= damp
	} else {
		delta /= 2
	}
	delta += delta / numPoints
	k := 0
	for delta > ((base-tMin)*tMax)/2 {
		delta /= base - tMin
		k += base
	}
	return k + (base-tMin+1)*delta/(delta+skew)
}

// threshold is t(k) of RFC 3492 §6: k - bias, clamped to [tMin, tMax].
func threshold(k, bias int) int { return min(max(k-bias, tMin), tMax) }

func encodeDigit(d int) byte {
	switch {
	case d < 26:
		return byte('a' + d)
	case d < 36:
		return byte('0' + d - 26)
	}
	panic("punycode: digit out of range")
}

func decodeDigit(c byte) (int, bool) {
	switch {
	case c >= '0' && c <= '9':
		return int(c-'0') + 26, true
	case c >= 'A' && c <= 'Z':
		return int(c - 'A'), true
	case c >= 'a' && c <= 'z':
		return int(c - 'a'), true
	}
	return 0, false
}

// Encode converts a Unicode label to its Punycode form (without the
// "xn--" prefix). Labels that are pure ASCII are returned with a
// trailing delimiter per the RFC, matching the reference algorithm.
func Encode(s string) (string, error) {
	var buf [64]byte
	b, err := AppendEncode(buf[:0], s)
	return string(b), err
}

// AppendEncode appends Encode(s) to dst. It walks s by rune on every
// pass, so an encode into a buffer with room allocates nothing. On
// error it returns dst unchanged.
func AppendEncode(dst []byte, s string) ([]byte, error) {
	out, basic, runes := dst, 0, 0
	for _, r := range s {
		if r < 0x80 {
			out = append(out, byte(r))
			basic++
		} else if r > maxRune || (r >= 0xD800 && r <= 0xDFFF) {
			return dst, fmt.Errorf("punycode: invalid rune U+%04X", r)
		}
		runes++
	}
	h, b := basic, basic
	if b > 0 {
		out = append(out, delimiter)
	}
	n, delta, bias := initialN, 0, initialBias
	for h < runes {
		m := maxRune + 1
		for _, r := range s {
			if int(r) >= n && int(r) < m {
				m = int(r)
			}
		}
		if (m - n) > (int(^uint(0)>>1)-delta)/(h+1) {
			return dst, ErrOverflow
		}
		delta += (m - n) * (h + 1)
		n = m
		for _, r := range s {
			if int(r) < n {
				delta++
				if delta == 0 {
					return dst, ErrOverflow
				}
			}
			if int(r) == n {
				q := delta
				for k := base; ; k += base {
					t := threshold(k, bias)
					if q < t {
						break
					}
					out = append(out, encodeDigit(t+(q-t)%(base-t)))
					q = (q - t) / (base - t)
				}
				out = append(out, encodeDigit(q))
				bias = adapt(delta, h+1, h == b)
				delta = 0
				h++
			}
		}
		delta++
		n++
	}
	return out, nil
}

// decodedLabels memoizes Decode: the corpus reuses a small pool of IDN
// labels, and every IDN lint re-decodes them for every certificate.
// Decode is pure, so a bounded lock-free table (2048 slots) makes the
// steady state allocation-free; oversized or overflow labels just
// decode uncached.
var decodedLabels = intern.New[decodeResult](2048)

type decodeResult struct {
	s   string
	err error
}

// Decode converts a Punycode label (without the "xn--" prefix) back to
// Unicode. It enforces the overflow checks of RFC 3492 §6.4 and rejects
// encoded surrogates and out-of-range code points. Results for labels
// of DNS-plausible length are memoized.
func Decode(s string) (string, error) {
	if len(s) > 256 {
		return decode(s)
	}
	if r, ok := decodedLabels.GetString(0, s); ok {
		return r.s, r.err
	}
	out, err := decode(s)
	decodedLabels.PutString(0, s, decodeResult{s: out, err: err})
	return out, err
}

func decode(s string) (string, error) {
	var output []rune
	pos := 0
	if i := strings.LastIndexByte(s, delimiter); i >= 0 {
		for _, c := range []byte(s[:i]) {
			if c >= 0x80 {
				return "", fmt.Errorf("punycode: non-ASCII byte 0x%02X in basic portion", c)
			}
			output = append(output, rune(c))
		}
		pos = i + 1
	}
	n, i, bias := initialN, 0, initialBias
	for pos < len(s) {
		oldi, w := i, 1
		for k := base; ; k += base {
			if pos >= len(s) {
				return "", errors.New("punycode: truncated variable-length integer")
			}
			d, ok := decodeDigit(s[pos])
			pos++
			if !ok {
				return "", fmt.Errorf("punycode: invalid digit %q", s[pos-1])
			}
			if d > (int(^uint(0)>>1)-i)/w {
				return "", ErrOverflow
			}
			i += d * w
			t := threshold(k, bias)
			if d < t {
				break
			}
			if w > int(^uint(0)>>1)/(base-t) {
				return "", ErrOverflow
			}
			w *= base - t
		}
		x := len(output) + 1
		bias = adapt(i-oldi, x, oldi == 0)
		if i/x > int(^uint(0)>>1)-n {
			return "", ErrOverflow
		}
		n += i / x
		i %= x
		if n > maxRune || (n >= 0xD800 && n <= 0xDFFF) {
			return "", fmt.Errorf("punycode: decoded code point U+%04X out of range", n)
		}
		output = append(output, 0)
		copy(output[i+1:], output[i:])
		output[i] = rune(n)
		i++
	}
	return string(output), nil
}

// ACEPrefix is the IDNA ASCII-compatible-encoding prefix.
const ACEPrefix = "xn--"

// EncodeLabel produces the A-label for a Unicode label, applying the
// ACE prefix only when non-ASCII characters are present.
func EncodeLabel(label string) (string, error) {
	if IsASCII(label) {
		return label, nil
	}
	var buf [64]byte
	b, err := AppendLabel(buf[:0], label)
	return string(b), err
}

// AppendLabel appends EncodeLabel(label) to dst; on error it returns
// dst unchanged.
func AppendLabel(dst []byte, label string) ([]byte, error) {
	if IsASCII(label) {
		return append(dst, label...), nil
	}
	out, err := AppendEncode(append(dst, ACEPrefix...), label)
	if err != nil {
		out = dst
	}
	return out, err
}

// IsASCII reports whether s is pure ASCII.
func IsASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// DecodeLabel converts an A-label back to its U-label. Labels without
// the ACE prefix are returned unchanged.
func DecodeLabel(label string) (string, error) {
	lower := strings.ToLower(label)
	if !strings.HasPrefix(lower, ACEPrefix) {
		return label, nil
	}
	return Decode(label[len(ACEPrefix):])
}
