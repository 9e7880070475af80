package idna

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/raceflag"
)

func TestValidateLDHLabel(t *testing.T) {
	valid := []string{"example", "a", "a-b", "xn--bcher-kva", "123", "A1-B2"}
	for _, l := range valid {
		if err := ValidateLDHLabel(l); err != nil {
			t.Errorf("%q: %v", l, err)
		}
	}
	cases := []struct {
		label string
		want  error
	}{
		{"", ErrEmptyLabel},
		{strings.Repeat("a", 64), ErrLabelTooLong},
		{"-leading", ErrLeadingHyphen},
		{"trailing-", ErrTrailingHyphen},
		{"ab--cd", ErrHyphen34},
		{"has space", ErrBadLDHCharacter},
		{"под", ErrBadLDHCharacter},
		{"a_b", ErrBadLDHCharacter},
	}
	for _, c := range cases {
		if err := ValidateLDHLabel(c.label); !errors.Is(err, c.want) {
			t.Errorf("%q: got %v, want %v", c.label, err, c.want)
		}
	}
}

func TestValidateULabel(t *testing.T) {
	valid := []string{"bücher", "中国政府", "пример", "ελλάδα", "한국"}
	for _, l := range valid {
		if err := ValidateULabel(l); err != nil {
			t.Errorf("%q: %v", l, err)
		}
	}
	cases := []struct {
		label string
		want  error
	}{
		{"", ErrEmptyLabel},
		{"bücher", ErrNotNFC},          // decomposed ü
		{"ab‎cd", ErrDisallowedRune},    // LRM
		{"web​site", ErrDisallowedRune}, // ZWSP
		{"Über", ErrDisallowedRune},     // unmapped uppercase
		{"-bücher", ErrLeadingHyphen},
		{"bücher-", ErrTrailingHyphen},
		{"a™b", ErrDisallowedRune},      // symbol
		{"שלוםhello", ErrBidiViolation}, // RTL+LTR mix
	}
	for _, c := range cases {
		if err := ValidateULabel(c.label); !errors.Is(err, c.want) {
			t.Errorf("%q: got %v, want %v", c.label, err, c.want)
		}
	}
}

func TestValidateALabel(t *testing.T) {
	if err := ValidateALabel("xn--bcher-kva"); err != nil {
		t.Fatalf("valid A-label rejected: %v", err)
	}
	// The paper's P1.3 example: xn--www-hn0a decodes to "‎www" (LRM
	// prefix), which must fail the post-conversion check.
	if err := ValidateALabel("xn--www-hn0a"); !errors.Is(err, ErrDisallowedRune) {
		t.Fatalf("deceptive label must be rejected: %v", err)
	}
	// Not an A-label at all.
	if err := ValidateALabel("plain"); err == nil {
		t.Fatal("missing ACE prefix must be rejected")
	}
	// Punycode garbage that cannot be decoded.
	if err := ValidateALabel("xn--" + strings.Repeat("9", 40)); !errors.Is(err, ErrUnconvertible) {
		t.Fatalf("unconvertible label: got %v", err)
	}
}

func TestValidateALabelNonCanonical(t *testing.T) {
	// An A-label that decodes to pure-ASCII text re-encodes without the
	// prefix, so the round trip fails.
	if err := ValidateALabel("xn--abc-"); err == nil {
		t.Fatal("non-canonical A-label must be rejected")
	}
}

func TestToUnicodeToASCIIRoundTrip(t *testing.T) {
	domains := []string{"bücher.example", "中国政府.cn", "пример.испытание", "plain.example.com"}
	for _, d := range domains {
		a, err := ToASCII(d)
		if err != nil {
			t.Fatalf("ToASCII(%q): %v", d, err)
		}
		for _, c := range []byte(a) {
			if c >= 0x80 {
				t.Fatalf("ToASCII(%q) contains non-ASCII: %q", d, a)
			}
		}
		u, err := ToUnicode(a)
		if err != nil {
			t.Fatalf("ToUnicode(%q): %v", a, err)
		}
		if u != strings.ToLower(d) && u != d {
			t.Errorf("round trip %q -> %q -> %q", d, a, u)
		}
	}
}

func TestIsIDN(t *testing.T) {
	if !IsIDN("xn--bcher-kva.example") {
		t.Error("A-label domain is an IDN")
	}
	if !IsIDN("bücher.example") {
		t.Error("U-label domain is an IDN")
	}
	if IsIDN("www.example.com") {
		t.Error("ASCII domain is not an IDN")
	}
}

func TestValidateDNSName(t *testing.T) {
	valid := []string{"test.com", "*.example.org", "xn--bcher-kva.de", "a.b.c.d"}
	for _, d := range valid {
		if err := ValidateDNSName(d); err != nil {
			t.Errorf("%q: %v", d, err)
		}
	}
	invalid := []string{
		"",
		"has space.com",
		"-bad.com",
		"xn--www-hn0a.com", // decodes to LRM-prefixed label
		strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + "." + strings.Repeat("c", 63) + "." + strings.Repeat("d", 63) + ".e",
	}
	for _, d := range invalid {
		if err := ValidateDNSName(d); err == nil {
			t.Errorf("%q should be rejected", d)
		}
	}
}

func TestWildcardOnlyLeftmost(t *testing.T) {
	if err := ValidateDNSName("*.example.com"); err != nil {
		t.Errorf("leftmost wildcard is legal: %v", err)
	}
	if err := ValidateDNSName("www.*.com"); err == nil {
		t.Error("non-leftmost wildcard must be rejected")
	}
}

func TestValidateNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_ = ValidateDNSName(s)
		_ = ValidateULabel(s)
		_ = ValidateALabel(s)
		_, _ = ToASCII(s)
		_, _ = ToUnicode(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestValidALabelRoundTripProperty(t *testing.T) {
	// Every valid U-label's canonical A-label must validate.
	for _, u := range []string{"bücher", "中国政府", "пример", "ελλάδα", "한국", "日本語"} {
		a, err := ToASCII(u)
		if err != nil {
			t.Fatalf("%q: %v", u, err)
		}
		if err := ValidateALabel(a); err != nil {
			t.Errorf("canonical A-label %q of %q rejected: %v", a, u, err)
		}
	}
}

func TestIsIDNccTLD(t *testing.T) {
	for _, d := range []string{"bank.xn--p1ai", "example.xn--fiqs8s", "shop.рф", "Example.XN--P1AI."} {
		if !IsIDNccTLD(d) {
			t.Errorf("%q should be an IDN ccTLD domain", d)
		}
	}
	for _, d := range []string{"example.com", "xn--p1ai.com", "", "bank.ru"} {
		if IsIDNccTLD(d) {
			t.Errorf("%q should not be an IDN ccTLD domain", d)
		}
	}
}

// TestValidateLabelsAllocateNothing: a valid label's A-label is encoded
// into a stack buffer, so validating it allocates nothing.
func TestValidateLabelsAllocateNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	for _, l := range []string{"bücher", "中国政府", "example"} {
		if n := testing.AllocsPerRun(100, func() { _ = ValidateULabel(l) }); n != 0 {
			t.Errorf("ValidateULabel(%q): %v allocs, want 0", l, n)
		}
	}
	for _, l := range []string{"xn--bcher-kva", "xn--fiqs8sirgfmh"} {
		if n := testing.AllocsPerRun(100, func() { _ = ValidateALabel(l) }); n != 0 {
			t.Errorf("ValidateALabel(%q): %v allocs, want 0", l, n)
		}
	}
}
