package lints

// Exhaustive trigger coverage: every registered lint must fail on at
// least one crafted certificate. This pins the behaviour of all 95
// rules, not just the headline ones.

import (
	"fmt"
	"math/big"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/asn1der"
	"repro/internal/lint"
	"repro/internal/strenc"
	"repro/internal/x509cert"
)

// trigger builds a template mutation that must make the named lint fail.
type trigger func(*x509cert.Template)

func subjectAttr(oid asn1der.OID, tag int, content []byte) trigger {
	return func(tpl *x509cert.Template) {
		tpl.Subject = append(tpl.Subject, x509cert.RDN{x509cert.RawATV(oid, tag, content)})
	}
}

func issuerAttr(oid asn1der.OID, tag int, content []byte) trigger {
	return func(tpl *x509cert.Template) {
		tpl.Issuer = append(tpl.Issuer, x509cert.RDN{x509cert.RawATV(oid, tag, content)})
	}
}

func san(names ...string) trigger {
	return func(tpl *x509cert.Template) {
		tpl.SAN = nil
		for _, n := range names {
			tpl.SAN = append(tpl.SAN, x509cert.DNSName(n))
		}
		// Keep CN aligned so the structure lint stays quiet unless it
		// is the one under test.
		tpl.Subject = x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, names[0]))
	}
}

func explicitText(tag int, text []byte) trigger {
	return func(tpl *x509cert.Template) {
		tpl.Policies = append(tpl.Policies, x509cert.PolicyInformation{
			Policy:       asn1der.OID{2, 23, 140, 1, 2, 2},
			ExplicitText: []x509cert.DisplayText{{Tag: tag, Bytes: text}},
		})
	}
}

func bmp(s string) []byte { return strenc.EncodeUnchecked(strenc.UCS2, s) }

// triggers maps every lint to a mutation that must make it fail.
var triggers = map[string]trigger{
	// —— T1 ——
	"e_rfc_subject_dn_not_printable_characters":  subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte("Bad\x1bOrg")),
	"e_rfc_issuer_dn_not_printable_characters":   issuerAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte("Bad\x7fOrg")),
	"e_rfc_subject_printable_string_badalpha":    subjectAttr(x509cert.OIDOrganizationName, asn1der.TagPrintableString, []byte("Org@Home")),
	"e_rfc_issuer_printable_string_badalpha":     issuerAttr(x509cert.OIDOrganizationName, asn1der.TagPrintableString, []byte("Org&Co")),
	"w_community_subject_dn_leading_whitespace":  subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte(" Org")),
	"w_community_subject_dn_trailing_whitespace": subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte("Org ")),
	"e_cab_dns_bad_character_in_label":           san("under_score.test.com"),
	"e_rfc_dns_idn_malformed_unicode":            san("xn--" + strings.Repeat("9", 24) + ".test.com"),
	"e_rfc_dns_idn_a2u_unpermitted_unichar":      san("xn--www-hn0a.test.com"),
	"e_ext_san_dns_contain_unpermitted_unichar":  san("bad\x01.test.com"),
	"e_ext_ian_dns_contain_unpermitted_unichar": func(tpl *x509cert.Template) {
		tpl.IAN = []x509cert.GeneralName{{Kind: x509cert.GNDNSName, Bytes: []byte("ian\xFF.test.com")}}
	},
	"e_subject_dn_contains_bidi_controls":          subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte("www.‮lapyap‬.com")),
	"e_subject_dn_contains_invisible_layout_chars": subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte("Or​g")),
	"e_ext_san_email_contains_control_chars": func(tpl *x509cert.Template) {
		tpl.SAN = append(tpl.SAN, x509cert.GeneralName{Kind: x509cert.GNRFC822Name, Bytes: []byte("a\x01b@test.com")})
	},
	"e_ext_san_uri_contains_unpermitted_chars": func(tpl *x509cert.Template) {
		tpl.SAN = append(tpl.SAN, x509cert.GeneralName{Kind: x509cert.GNURI, Bytes: []byte("http://x.test/a b")})
	},
	"e_numeric_string_badalpha":                  subjectAttr(x509cert.OIDSerialNumber, asn1der.TagNumericString, []byte("12A4")),
	"e_ia5_string_contains_8bit":                 subjectAttr(x509cert.OIDEmailAddress, asn1der.TagIA5String, []byte("a\xE9@test.com")),
	"e_utf8_string_contains_disallowed_controls": subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte("A\x00B")),
	"e_bmp_string_contains_surrogate_halves":     subjectAttr(x509cert.OIDOrganizationName, asn1der.TagBMPString, []byte{0xD8, 0x00, 0x00, 0x41}),
	"w_subject_dn_contains_replacement_char":     subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte("St�ri AG")),
	"e_crl_dp_contains_control_chars": func(tpl *x509cert.Template) {
		tpl.CRLDistributionPoints = []x509cert.GeneralName{{Kind: x509cert.GNURI, Bytes: []byte("http://ssl\x01test.com")}}
	},
	"e_teletex_string_outside_charset": subjectAttr(x509cert.OIDOrganizationName, asn1der.TagTeletexString, []byte{'O', 0x0b, 'g'}),

	// —— T2 ——
	"e_rfc_dns_idn_not_nfc_after_conversion": san(nonNFCLabelForTest() + ".test.com"),
	"w_subject_utf8_not_nfc":                 subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte("Städt")),
	"w_issuer_utf8_not_nfc":                  issuerAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte("Müller")),
	"e_rfc_idn_punycode_roundtrip_mismatch":  san("xn--abc-.test.com"),

	// —— T3 illegal format ——
	"e_rfc_ext_cp_explicit_text_too_long":           explicitText(asn1der.TagUTF8String, []byte(strings.Repeat("x", 201))),
	"e_subject_common_name_max_length":              subjectAttr(x509cert.OIDCommonName, asn1der.TagUTF8String, []byte(strings.Repeat("a", 65))),
	"e_subject_organization_name_max_length":        subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte(strings.Repeat("a", 65))),
	"e_subject_organizational_unit_name_max_length": subjectAttr(x509cert.OIDOrganizationalUnit, asn1der.TagUTF8String, []byte(strings.Repeat("a", 65))),
	"e_subject_locality_name_max_length":            subjectAttr(x509cert.OIDLocalityName, asn1der.TagUTF8String, []byte(strings.Repeat("a", 129))),
	"e_subject_state_name_max_length":               subjectAttr(x509cert.OIDStateOrProvinceName, asn1der.TagUTF8String, []byte(strings.Repeat("a", 129))),
	"e_subject_serial_number_max_length":            subjectAttr(x509cert.OIDSerialNumber, asn1der.TagPrintableString, []byte(strings.Repeat("1", 65))),
	"e_subject_country_not_iso":                     subjectAttr(x509cert.OIDCountryName, asn1der.TagPrintableString, []byte("Germany")),
	"e_subject_country_not_uppercase":               subjectAttr(x509cert.OIDCountryName, asn1der.TagPrintableString, []byte("de")),
	"e_dns_label_too_long":                          san(strings.Repeat("a", 64) + ".test.com"),
	"e_dns_name_too_long":                           san(strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + "." + strings.Repeat("c", 63) + "." + strings.Repeat("d", 63) + ".test.com"),
	"e_dns_label_leading_hyphen":                    san("-bad.test.com"),
	"e_dns_label_trailing_hyphen":                   san("bad-.test.com"),
	"e_dns_double_hyphen_no_ace":                    san("ab--cd.test.com"),
	"e_san_dns_name_empty": func(tpl *x509cert.Template) {
		tpl.SAN = append(tpl.SAN, x509cert.GeneralName{Kind: x509cert.GNDNSName})
	},
	"e_subject_empty_attribute_value": subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, nil),
	"e_rfc822_name_malformed": func(tpl *x509cert.Template) {
		tpl.SAN = append(tpl.SAN, x509cert.GeneralName{Kind: x509cert.GNRFC822Name, Bytes: []byte("no-at-sign")})
	},

	// —— T3 structure / discouraged ——
	"w_cab_subject_common_name_not_in_san": func(tpl *x509cert.Template) {
		tpl.Subject = x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "elsewhere.test"))
	},
	"e_subject_duplicate_attribute": func(tpl *x509cert.Template) {
		tpl.Subject = append(tpl.Subject, x509cert.RDN{x509cert.TextATV(x509cert.OIDCommonName, "dup.test")})
	},
	"w_cab_subject_contain_extra_common_name": func(tpl *x509cert.Template) {
		tpl.Subject = append(tpl.Subject, x509cert.RDN{x509cert.TextATV(x509cert.OIDCommonName, "extra.test")})
	},
	"w_san_contains_uri": func(tpl *x509cert.Template) {
		tpl.SAN = append(tpl.SAN, x509cert.GeneralName{Kind: x509cert.GNURI, Bytes: []byte("https://x.test/")})
	},

	// —— T3 invalid encoding (non-family) ——
	"w_rfc_ext_cp_explicit_text_not_utf8":      explicitText(asn1der.TagVisibleString, []byte("notice")),
	"e_rfc_ext_cp_explicit_text_ia5":           explicitText(asn1der.TagIA5String, []byte("notice")),
	"e_subject_dn_serial_number_not_printable": subjectAttr(x509cert.OIDSerialNumber, asn1der.TagUTF8String, []byte("SN1")),
	"e_rfc_subject_country_not_printable":      subjectAttr(x509cert.OIDCountryName, asn1der.TagUTF8String, []byte("DE")),
	"e_subject_email_not_ia5":                  subjectAttr(x509cert.OIDEmailAddress, asn1der.TagUTF8String, []byte("a@test.com")),
	"e_subject_dc_not_ia5":                     subjectAttr(x509cert.OIDDomainComponent, asn1der.TagUTF8String, []byte("com")),
	"e_directory_string_bad_tag":               subjectAttr(x509cert.OIDOrganizationName, asn1der.TagVisibleString, []byte("Org")),
	"w_subject_dn_uses_teletexstring":          subjectAttr(x509cert.OIDOrganizationName, asn1der.TagTeletexString, []byte("Org")),
	"w_subject_dn_uses_bmpstring":              subjectAttr(x509cert.OIDOrganizationName, asn1der.TagBMPString, bmp("Org")),
	"w_subject_dn_uses_universalstring":        subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUniversalString, []byte{0, 0, 0, 'O'}),
	"e_gn_ia5_contains_8bit": func(tpl *x509cert.Template) {
		tpl.SAN = append(tpl.SAN, x509cert.GeneralName{Kind: x509cert.GNDNSName, Bytes: []byte("b\xFCcher.test.com")})
	},
	"e_ext_cp_explicit_text_bmp":     explicitText(asn1der.TagBMPString, bmp("notice")),
	"w_ext_cp_explicit_text_visible": explicitText(asn1der.TagVisibleString, []byte("notice")),
	"e_san_email_smtputf8_required": func(tpl *x509cert.Template) {
		tpl.SAN = append(tpl.SAN, x509cert.GeneralName{Kind: x509cert.GNRFC822Name, Bytes: []byte("us\xC3\xA9r@test.com")})
	},
	"e_rfc822_domain_not_ldh": func(tpl *x509cert.Template) {
		tpl.SAN = append(tpl.SAN, x509cert.GeneralName{Kind: x509cert.GNRFC822Name, Bytes: []byte("a@under_score.test.com")})
	},
	"e_ian_email_not_ascii": func(tpl *x509cert.Template) {
		tpl.IAN = []x509cert.GeneralName{{Kind: x509cert.GNRFC822Name, Bytes: []byte("\xC3\xB6@test.com")}}
	},
	"e_bmp_string_odd_length":                  subjectAttr(x509cert.OIDOrganizationName, asn1der.TagBMPString, []byte{0x00, 0x41, 0x42}),
	"e_universal_string_length_not_multiple_4": subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUniversalString, []byte{0, 0, 'A'}),
	"w_teletex_string_for_new_subject":         subjectAttr(x509cert.OIDOrganizationName, asn1der.TagTeletexString, []byte("Org")),
	"e_utf8_declared_but_invalid_bytes":        subjectAttr(x509cert.OIDOrganizationName, asn1der.TagUTF8String, []byte{'O', 0xC3, 0x28}),
	"e_crl_dp_uri_not_ia5": func(tpl *x509cert.Template) {
		tpl.CRLDistributionPoints = []x509cert.GeneralName{{Kind: x509cert.GNURI, Bytes: []byte("http://cr\xE9l.test")}}
	},
	"e_aia_location_not_ia5": func(tpl *x509cert.Template) {
		tpl.AIA = []x509cert.AccessDescription{{Method: x509cert.OIDAccessOCSP, Location: x509cert.GeneralName{Kind: x509cert.GNURI, Bytes: []byte("http://oc\xE9sp.test")}}}
	},
}

func init() {
	// Per-attribute encoding families: generate the 26 family triggers.
	family := []struct {
		slug string
		oid  asn1der.OID
	}{
		{"common_name", x509cert.OIDCommonName},
		{"organization", x509cert.OIDOrganizationName},
		{"ou", x509cert.OIDOrganizationalUnit},
		{"locality", x509cert.OIDLocalityName},
		{"state", x509cert.OIDStateOrProvinceName},
		{"street", x509cert.OIDStreetAddress},
		{"postal_code", x509cert.OIDPostalCode},
		{"jurisdiction_locality", x509cert.OIDJurisdictionLocality},
		{"jurisdiction_state", x509cert.OIDJurisdictionState},
		{"given_name", x509cert.OIDGivenName},
		{"surname", x509cert.OIDSurname},
		{"business_category", x509cert.OIDBusinessCategory},
	}
	for _, side := range []string{"subject", "issuer"} {
		attr := subjectAttr
		if side == "issuer" {
			attr = issuerAttr
		}
		for _, fa := range family {
			name := "e_" + side + "_" + fa.slug + "_not_printable_or_utf8"
			triggers[name] = attr(fa.oid, asn1der.TagBMPString, bmp("値"))
		}
		triggers["e_"+side+"_jurisdiction_country_not_printable"] =
			attr(x509cert.OIDJurisdictionCountry, asn1der.TagUTF8String, []byte("DE"))
	}
}

func nonNFCLabelForTest() string {
	l, err := punycodeEncode("bücher")
	if err != nil {
		panic(err)
	}
	return l
}

// triggerDER builds the trigger certificate for one mutation.
func triggerDER(t *testing.T, mutate trigger) []byte {
	t.Helper()
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(31),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Trigger CA")),
		Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "test.com")),
		NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN:          []x509cert.GeneralName{x509cert.DNSName("test.com")},
	}
	mutate(tpl)
	der, err := x509cert.Build(tpl, lintCAKey, lintLeafKey)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return der
}

func TestEveryLintHasATrigger(t *testing.T) {
	for _, l := range lint.Global.All() {
		if _, ok := triggers[l.Name]; !ok {
			t.Errorf("lint %s has no trigger", l.Name)
		}
	}
	for name := range triggers {
		if _, ok := lint.Global.ByName(name); !ok {
			t.Errorf("trigger %s has no lint", name)
		}
	}
}

func TestAllTriggersFire(t *testing.T) {
	for name, mutate := range triggers {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			c, err := x509cert.Parse(triggerDER(t, mutate))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res := lint.Global.Run(c, lint.Options{Only: map[string]bool{name: true}})
			for _, f := range res.Findings {
				if res.Lint(f).Name != name {
					continue
				}
				if f.Status != lint.Fail {
					t.Fatalf("status %s (details %q)", f.Status, res.Details(f))
				}
				return
			}
			t.Fatal("no finding produced")
		})
	}
}

// nearMisses maps each DNS label lint to a mutation of the same field
// with a compliant value: the lint applies to it and must pass.
var nearMisses = map[string]trigger{
	"e_rfc_dns_idn_not_nfc_after_conversion": san("xn--mnchen-3ya.test.com"),
	"e_rfc_idn_punycode_roundtrip_mismatch":  san("XN--Bcher-KVA.Test.COM."),
	"e_rfc_dns_idn_malformed_unicode":        san("xn--bcher-kva.test.com"),
	"e_rfc_dns_idn_a2u_unpermitted_unichar":  san("*.xn--fiqs8s.test.com"),
	"e_dns_label_too_long":                   san(strings.Repeat("a", 63) + ".test.com"),
	"e_dns_label_leading_hyphen":             san("a-b.test.com", "*.test.com"),
	"e_dns_label_trailing_hyphen":            san("a-b.test.com", "a..b.test.com"),
	"e_dns_double_hyphen_no_ace":             san("abc--d.test.com", "xn--bcher-kva.test.com"),
}

func TestNearMissesPass(t *testing.T) {
	for name, mutate := range nearMisses {
		t.Run(name, func(t *testing.T) {
			c, err := x509cert.Parse(triggerDER(t, mutate))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res := lint.Global.Run(c, lint.Options{Only: map[string]bool{name: true}})
			for _, f := range res.Findings {
				if res.Lint(f).Name == name && f.Status != lint.Pass {
					t.Fatalf("status %s (details %q), want pass", f.Status, res.Details(f))
				}
			}
		})
	}
}

const triggerGoldenPath = "testdata/triggers.golden"

// TestTriggerGolden runs every lint on every trigger and near-miss
// certificate and pins, per certificate, each outcome that is not Pass
// with its details: the lints a trigger makes fail together, and the
// exact text of each failure. NA outcomes are counted, not listed.
// Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/lint/lints -run TriggerGolden
//
// only when such a change is intended.
func TestTriggerGolden(t *testing.T) {
	var sb strings.Builder
	for _, set := range []struct {
		kind string
		m    map[string]trigger
	}{{"trigger", triggers}, {"near-miss", nearMisses}} {
		names := make([]string, 0, len(set.m))
		for name := range set.m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c, err := x509cert.Parse(triggerDER(t, set.m[name]))
			if err != nil {
				t.Fatalf("%s %s: parse: %v", set.kind, name, err)
			}
			res := lint.Global.Run(c, lint.Options{})
			var lines []string
			na := 0
			for _, f := range res.Findings {
				switch f.Status {
				case lint.Pass:
				case lint.NA:
					na++
				default:
					lines = append(lines, fmt.Sprintf("  %s %s %q\n", res.Lint(f).Name, f.Status, res.Details(f)))
				}
			}
			sort.Strings(lines)
			fmt.Fprintf(&sb, "%s %s (%d NA)\n%s", set.kind, name, na, strings.Join(lines, ""))
		}
	}
	got := sb.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(triggerGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(triggerGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl)-1 && i < len(wl)-1 && gl[i] == wl[i] {
			i++
		}
		t.Fatalf("trigger golden drift at line %d:\n got  %s\n want %s\n(regenerate with UPDATE_GOLDEN=1 only if the change is intended)", i+1, gl[i], wl[i])
	}
}
