package punycode

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"
)

func FuzzDecode(f *testing.F) {
	f.Add("bcher-kva")
	f.Add("fiqs8sirgfmh")
	f.Add(strings.Repeat("9", 64))
	f.Add("a-b-c-")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		out, err := Decode(s)
		if err != nil {
			return
		}
		// Decoded output must be valid UTF-8 with no surrogates.
		if !utf8.ValidString(out) {
			t.Fatalf("Decode(%q) produced invalid UTF-8", s)
		}
		for _, r := range out {
			if r >= 0xD800 && r <= 0xDFFF {
				t.Fatalf("Decode(%q) produced surrogate U+%04X", s, r)
			}
		}
		// Re-encoding must succeed (the output is by construction in
		// range).
		if _, err := Encode(out); err != nil {
			t.Fatalf("Encode(Decode(%q)): %v", s, err)
		}
	})
}

func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add("bücher")
	f.Add("中国政府")
	f.Add("plain")
	f.Fuzz(func(t *testing.T, s string) {
		if !utf8.ValidString(s) {
			t.Skip()
		}
		for _, r := range s {
			if r >= 0xD800 && r <= 0xDFFF {
				t.Skip()
			}
		}
		enc, err := Encode(s)
		if err != nil {
			t.Skip()
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%q)): %v", s, err)
		}
		if dec != s {
			t.Fatalf("round trip %q -> %q -> %q", s, enc, dec)
		}
	})
}

// FuzzAppendEncode checks AppendEncode, Encode and AppendLabel against
// encodeOracle, the []rune and strings.Builder encoder they replaced,
// for any string: invalid UTF-8 included.
func FuzzAppendEncode(f *testing.F) {
	for _, v := range vectors {
		f.Add(v.unicode)
	}
	f.Add("plain")
	f.Add("a\xffb\xed\xa0\x80c")
	f.Add("\U0010FFFFé")
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := encodeOracle(s)
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		got, err := AppendEncode([]byte("pre"), s)
		if string(got) != "pre"+want || errText(err) != errText(wantErr) {
			t.Fatalf("AppendEncode(%q) = %q, %v; want %q, %v", s, got, err, "pre"+want, wantErr)
		}
		if got, err := Encode(s); got != want || errText(err) != errText(wantErr) {
			t.Fatalf("Encode(%q) = %q, %v; want %q, %v", s, got, err, want, wantErr)
		}
		wantLabel, wantLabelErr := s, error(nil)
		if !IsASCII(s) {
			wantLabel, wantLabelErr = "", wantErr
			if wantErr == nil {
				wantLabel = ACEPrefix + want
			}
		}
		if got, err := EncodeLabel(s); got != wantLabel || errText(err) != errText(wantLabelErr) {
			t.Fatalf("EncodeLabel(%q) = %q, %v; want %q, %v", s, got, err, wantLabel, wantLabelErr)
		}
	})
}

// encodeOracle is the reference Bootstring encoder: the label as a
// []rune, the output in a strings.Builder.
func encodeOracle(s string) (string, error) {
	var out strings.Builder
	runes := []rune(s)
	basic := 0
	for _, r := range runes {
		if r < 0x80 {
			out.WriteByte(byte(r))
			basic++
		} else if r > maxRune || (r >= 0xD800 && r <= 0xDFFF) {
			return "", fmt.Errorf("punycode: invalid rune U+%04X", r)
		}
	}
	h, b := basic, basic
	if b > 0 {
		out.WriteByte(delimiter)
	}
	n, delta, bias := initialN, 0, initialBias
	for h < len(runes) {
		m := maxRune + 1
		for _, r := range runes {
			if int(r) >= n && int(r) < m {
				m = int(r)
			}
		}
		if (m - n) > (int(^uint(0)>>1)-delta)/(h+1) {
			return "", ErrOverflow
		}
		delta += (m - n) * (h + 1)
		n = m
		for _, r := range runes {
			if int(r) < n {
				delta++
				if delta == 0 {
					return "", ErrOverflow
				}
			}
			if int(r) == n {
				q := delta
				for k := base; ; k += base {
					var t int
					switch {
					case k <= bias:
						t = tMin
					case k >= bias+tMax:
						t = tMax
					default:
						t = k - bias
					}
					if q < t {
						break
					}
					out.WriteByte(encodeDigit(t + (q-t)%(base-t)))
					q = (q - t) / (base - t)
				}
				out.WriteByte(encodeDigit(q))
				bias = adapt(delta, h+1, h == b)
				delta = 0
				h++
			}
		}
		delta++
		n++
	}
	return out.String(), nil
}
