package strenc

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestDecodeASCIIClean(t *testing.T) {
	s, err := Decode(ASCII, Strict, []byte("test.com"))
	if err != nil || s != "test.com" {
		t.Fatalf("got %q, %v", s, err)
	}
}

func TestDecodeASCIIStrictRejectsHighBytes(t *testing.T) {
	_, err := Decode(ASCII, Strict, []byte{'a', 0xC3, 0xA9})
	de, ok := err.(*DecodeError)
	if !ok {
		t.Fatalf("want *DecodeError, got %v", err)
	}
	if de.Offset != 1 || de.Byte != 0xC3 {
		t.Fatalf("wrong error detail: %+v", de)
	}
}

func TestDecodeASCIIHandlingModes(t *testing.T) {
	in := []byte{'t', 0x01, 0xFF, 't'}
	cases := []struct {
		h    Handling
		want string
	}{
		{Truncate, "t\x01t"},
		{Replace, "t\x01�t"},
		{Escape, `t` + "\x01" + `\xFFt`},
	}
	// 0x01 is ASCII (a C0 control) so it passes ASCII decoding; only
	// 0xFF is invalid.
	for _, c := range cases {
		got, err := Decode(ASCII, c.h, in)
		if err != nil {
			t.Fatalf("%v: %v", c.h, err)
		}
		if got != c.want {
			t.Errorf("%v: got %q want %q", c.h, got, c.want)
		}
	}
}

func TestDecodeLatin1NeverFails(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	s, err := Decode(ISO88591, Strict, all)
	if err != nil {
		t.Fatal(err)
	}
	if utf8.RuneCountInString(s) != 256 {
		t.Fatalf("want 256 runes, got %d", utf8.RuneCountInString(s))
	}
	for i, r := range []rune(s) {
		if r != rune(i) {
			t.Fatalf("rune %d decoded as U+%04X", i, r)
		}
	}
}

func TestDecodeUTF8Valid(t *testing.T) {
	in := []byte("gïthub.cn")
	s, err := Decode(UTF8, Strict, in)
	if err != nil || s != "gïthub.cn" {
		t.Fatalf("got %q, %v", s, err)
	}
}

func TestDecodeUTF8InvalidStrict(t *testing.T) {
	if _, err := Decode(UTF8, Strict, []byte{0xFF, 0xFE}); err == nil {
		t.Fatal("want error for invalid UTF-8")
	}
}

func TestDecodeUTF8InvalidEscape(t *testing.T) {
	s, err := Decode(UTF8, Escape, []byte{'a', 0xFF, 'b'})
	if err != nil {
		t.Fatal(err)
	}
	if s != `a\xFFb` {
		t.Fatalf("got %q", s)
	}
}

func TestDecodeUCS2(t *testing.T) {
	// "githube.cn" packed as pairs: the BMPString-to-ASCII confusion
	// example from §5.1.
	in := []byte{0x67, 0x69, 0x74, 0x68, 0x75, 0x62, 0x79, 0x2E, 0x63, 0x6E}
	s, err := Decode(UCS2, Strict, in)
	if err != nil {
		t.Fatal(err)
	}
	want := "杩瑨畢礮据"
	if s != want {
		t.Fatalf("got %q want %q", s, want)
	}
}

func TestDecodeUCS2SurrogateRejected(t *testing.T) {
	if _, err := Decode(UCS2, Strict, []byte{0xD8, 0x00}); err == nil {
		t.Fatal("UCS-2 must reject surrogate code units under Strict")
	}
	s, err := Decode(UCS2, Replace, []byte{0xD8, 0x00, 0x00, 0x41})
	if err != nil {
		t.Fatal(err)
	}
	if s != "�A" {
		t.Fatalf("got %q", s)
	}
}

func TestDecodeUCS2OddLength(t *testing.T) {
	if _, err := Decode(UCS2, Strict, []byte{0x00, 0x41, 0x42}); err == nil {
		t.Fatal("odd-length UCS-2 must fail under Strict")
	}
	s, err := Decode(UCS2, Truncate, []byte{0x00, 0x41, 0x42})
	if err != nil || s != "A" {
		t.Fatalf("got %q, %v", s, err)
	}
}

func TestDecodeUTF16SurrogatePair(t *testing.T) {
	// U+1F600 = D83D DE00
	in := []byte{0xD8, 0x3D, 0xDE, 0x00}
	s, err := Decode(UTF16BE, Strict, in)
	if err != nil {
		t.Fatal(err)
	}
	if s != "\U0001F600" {
		t.Fatalf("got %q", s)
	}
}

// TestDecodeToBoundedAndAllocFree checks that every method decodes
// straight into the builder: the output fits MaxDecodedLen under Replace
// and Truncate, and DecodeTo allocates nothing once that room is
// reserved (UTF-16 used to build a unit and a rune slice per value).
func TestDecodeToBoundedAndAllocFree(t *testing.T) {
	inputs := map[Method][]byte{
		ASCII:    []byte("plain \x80\xFF"),
		ISO88591: []byte("Caf\xE9 \xFF"),
		UTF8:     []byte("ü 認 \xFF\xC3"),
		UCS2:     {0x8A, 0x8D, 0x00, 'A', 0xD8, 0x00, 0x01},
		UTF16BE:  {0xD8, 0x3D, 0xDE, 0x00, 0x8A, 0x8D, 0xDC, 0x00, 0xD8, 0x00, 0xFF, 0xFD, 0x01},
		T61:      []byte("M\xC8unchen \xE9t\xA3\x85\xC1"),
	}
	for m, in := range inputs {
		for _, h := range []Handling{Replace, Truncate} {
			bound := MaxDecodedLen(m, in)
			var out string
			n := testing.AllocsPerRun(50, func() {
				var sb strings.Builder
				sb.Grow(bound)
				_ = DecodeTo(&sb, m, h, in)
				out = sb.String()
			})
			if len(out) > bound {
				t.Errorf("%s/%s: decoded %d bytes, bound %d", m, h, len(out), bound)
			}
			if n > 1 {
				t.Errorf("%s/%s: %v allocations, want only the builder's", m, h, n)
			}
		}
	}
}

// TestDecodeWideTextAllocatesOnce checks that Decode sizes its builder
// for what a UCS-2 or UTF-16 value decodes to: 12 CJK characters are 24
// bytes in and 36 out, which used to regrow the builder once.
func TestDecodeWideTextAllocatesOnce(t *testing.T) {
	const text = "国際化証明書の認証局名前"
	var in []byte
	for _, r := range text {
		in = append(in, byte(r>>8), byte(r))
	}
	for _, m := range []Method{UCS2, UTF16BE} {
		var out string
		n := testing.AllocsPerRun(50, func() {
			out, _ = Decode(m, Strict, in)
		})
		if out != text {
			t.Fatalf("%s: decoded %q", m, out)
		}
		if n != 1 {
			t.Errorf("%s: %v allocations, want 1", m, n)
		}
	}
}

func TestDecodeUTF16LoneSurrogateStrict(t *testing.T) {
	if _, err := Decode(UTF16BE, Strict, []byte{0xD8, 0x3D, 0x00, 0x41}); err == nil {
		t.Fatal("lone high surrogate must fail under Strict")
	}
	if _, err := Decode(UTF16BE, Strict, []byte{0xDE, 0x00}); err == nil {
		t.Fatal("lone low surrogate must fail under Strict")
	}
}

func TestDecodeT61ASCIIRange(t *testing.T) {
	s, err := Decode(T61, Strict, []byte("Plain Name"))
	if err != nil || s != "Plain Name" {
		t.Fatalf("got %q, %v", s, err)
	}
}

func TestDecodeT61Diacritic(t *testing.T) {
	// 0xC8 'o' is T.61 for ö ("Störi AG" from Table 3).
	in := []byte{'S', 't', 0xC8, 'o', 'r', 'i'}
	s, err := Decode(T61, Strict, in)
	if err != nil {
		t.Fatal(err)
	}
	if s != "Störi" {
		t.Fatalf("got %q", s)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		m Method
		s string
	}{
		{ASCII, "test.com"},
		{ISO88591, "Île-de-France"},
		{UTF8, "株式会社 中国銀行"},
		{UCS2, "Γειά"},
		{UTF16BE, "emoji \U0001F600 ok"},
	}
	for _, c := range cases {
		b, err := Encode(c.m, c.s)
		if err != nil {
			t.Fatalf("%v encode: %v", c.m, err)
		}
		got, err := Decode(c.m, Strict, b)
		if err != nil {
			t.Fatalf("%v decode: %v", c.m, err)
		}
		if got != c.s {
			t.Errorf("%v: round trip %q -> %q", c.m, c.s, got)
		}
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	if _, err := Encode(ASCII, "é"); err == nil {
		t.Error("ASCII must reject non-ASCII")
	}
	if _, err := Encode(ISO88591, "株"); err == nil {
		t.Error("Latin-1 must reject CJK")
	}
	if _, err := Encode(UCS2, "\U0001F600"); err == nil {
		t.Error("UCS-2 must reject astral runes")
	}
}

func TestEncodeUncheckedNarrows(t *testing.T) {
	b := EncodeUnchecked(ASCII, "é") // U+00E9 -> 0xE9
	if len(b) != 1 || b[0] != 0xE9 {
		t.Fatalf("got % X", b)
	}
	b = EncodeUnchecked(UCS2, "\U0001F600") // narrowed modulo 16 bits
	if len(b) != 2 {
		t.Fatalf("got % X", b)
	}
}

func TestRoundTripPropertyUTF8(t *testing.T) {
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		b, err := Encode(UTF8, s)
		if err != nil {
			return false
		}
		got, err := Decode(UTF8, Strict, b)
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTripPropertyLatin1(t *testing.T) {
	f := func(b []byte) bool {
		s, err := Decode(ISO88591, Strict, b)
		if err != nil {
			return false
		}
		back, err := Encode(ISO88591, s)
		if err != nil {
			return false
		}
		return string(back) == string(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeNeverPanicsProperty(t *testing.T) {
	for _, m := range Methods() {
		for _, h := range Handlings() {
			m, h := m, h
			f := func(b []byte) bool {
				_, _ = Decode(m, h, b)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Errorf("%v/%v: %v", m, h, err)
			}
		}
	}
}

func TestMethodStrings(t *testing.T) {
	want := []string{"ASCII", "ISO-8859-1", "UTF-8", "UCS-2", "UTF-16", "T.61"}
	for i, m := range Methods() {
		if m.String() != want[i] {
			t.Errorf("method %d: got %q want %q", i, m.String(), want[i])
		}
	}
}
