package x509cert

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/asn1der"
	"repro/internal/strenc"
)

// checkTextView asserts the text view's contract on c: every text is
// the Replace-handled decode of its value under the standard method for
// its tag (IA5 for GeneralNames), every accessor is parallel to the
// slice it names, and rendering either DN from the view agrees with
// DN.String.
func checkTextView(t *testing.T, c *Certificate) {
	t.Helper()
	attrDecode := func(atv ATV) string {
		s, _ := strenc.Decode(atv.Value.StringType().StandardMethod(), strenc.Replace, atv.Value.Bytes)
		return s
	}
	nameDecode := func(gn GeneralName) string {
		s, _ := strenc.Decode(strenc.ASCII, strenc.Replace, gn.Bytes)
		return s
	}
	parallel := func(what string, got []string, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d texts for %d values", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %q, want %q", what, i, got[i], want[i])
			}
		}
	}
	decodeAll := func(atvs []ATV) []string {
		out := make([]string, len(atvs))
		for i, atv := range atvs {
			out[i] = attrDecode(atv)
		}
		return out
	}
	names := func(gns []GeneralName, kind GNKind) []string {
		out := []string{}
		for _, gn := range gns {
			if kind < 0 || gn.Kind == kind {
				out = append(out, nameDecode(gn))
			}
		}
		return out
	}
	all := append(c.Subject.Attributes()[:len(c.Subject.Attributes()):len(c.Subject.Attributes())], c.Issuer.Attributes()...)
	if got := c.AllAttributes(); len(got) != len(all) || len(all) > 0 && !reflect.DeepEqual(got, all) {
		t.Errorf("AllAttributes = %v, want %v", got, all)
	}
	parallel("AttributeTexts", c.AttributeTexts(), decodeAll(c.AllAttributes()))
	parallel("SubjectTexts", c.SubjectTexts(), decodeAll(c.Subject.Attributes()))
	parallel("IssuerTexts", c.IssuerTexts(), decodeAll(c.Issuer.Attributes()))
	parallel("SANTexts", c.SANTexts(), names(c.SAN, -1))
	parallel("DNSNameTexts", c.DNSNameTexts(), append(names(c.SAN, GNDNSName), names(c.IAN, GNDNSName)...))
	parallel("DNSNames", c.DNSNames(), names(c.SAN, GNDNSName))
	var labels []string
	for _, d := range c.DNSNameTexts() {
		labels = append(labels, strings.Split(strings.TrimSuffix(strings.ToLower(d), "."), ".")...)
	}
	parallel("DNSLabels", c.DNSLabels(), labels)
	parallel("EmailAddresses", c.EmailAddresses(), names(c.SAN, GNRFC822Name))
	parallel("URIs", c.URIs(), names(c.SAN, GNURI))
	if got, want := c.CommonName(), c.Subject.CommonName(); got != want {
		t.Errorf("CommonName = %q, want %q", got, want)
	}
	if got, want := c.SubjectFirst(OIDOrganizationName), c.Subject.First(OIDOrganizationName); got != want {
		t.Errorf("SubjectFirst(O) = %q, want %q", got, want)
	}
	if got, want := c.IssuerString(), c.Issuer.String(); got != want {
		t.Errorf("IssuerString = %q, want %q", got, want)
	}
	if got, want := c.Subject.render(c.SubjectTexts()), c.Subject.String(); got != want {
		t.Errorf("subject rendered from the view = %q, want %q", got, want)
	}
}

// textViewTemplate carries every string shape the view must decode.
func textViewTemplate() *Template {
	tpl := baseTemplate()
	tpl.Issuer = SimpleDN(
		TextATV(OIDOrganizationName, "Ünïcode CA, Inc."),
		RawATV(OIDOrganizationalUnit, asn1der.TagBMPString, strenc.EncodeUnchecked(strenc.UCS2, "認証局")),
		RawATV(OIDLocalityName, asn1der.TagTeletexString, []byte("M\xC8unchen \xE9t\xA3")),
		RawATV(OIDStateOrProvinceName, asn1der.TagUniversalString, []byte{0, 0, 0, 'X', 0xD8, 0x00}),
		TextATV(OIDCommonName, " #lead+trail "),
	)
	tpl.Subject = SimpleDN(
		TextATV(OIDCommonName, "first.example"),
		RawATV(OIDCommonName, asn1der.TagUTF8String, []byte("bad\xFF\xC3utf8")),
		RawATV(OIDOrganizationName, asn1der.TagPrintableString, []byte("Caf\xE9 Latin-1")),
		RawATV(OIDOrganizationalUnit, asn1der.TagIA5String, []byte("na\xEFve")),
		RawATV(OIDLocalityName, asn1der.TagUTF8String, nil),
		RawATV(OIDStateOrProvinceName, asn1der.TagBMPString, []byte{0xD8, 0x00, 0x00, 'A', 0x01}),
		TextATV(OIDEmailAddress, "ops@first.example"),
	)
	tpl.SAN = []GeneralName{
		DNSName("first.example"),
		{Kind: GNDNSName, Bytes: []byte("xn--\xFF.example")},
		{Kind: GNDNSName},
		RFC822Name("ops@first.example"),
		URIName("https://first.example/\x01"),
		{Kind: GNIPAddress, Bytes: []byte{192, 0, 2, 200}},
		{Kind: GNDirectoryName, Directory: SimpleDN(TextATV(OIDCommonName, "dir"))},
		SmtpUTF8Mailbox("ü@first.example"),
	}
	tpl.IAN = []GeneralName{DNSName("ca.example"), RFC822Name("ca@example"), URIName("http://ca.example")}
	return tpl
}

func TestTextViewMatchesDecode(t *testing.T) {
	tpl := textViewTemplate()
	c := buildLeaf(t, tpl)
	checkTextView(t, c)
	if got := c.CommonName(); got != "first.example" {
		t.Errorf("duplicate CNs: CommonName = %q, want the first", got)
	}

	// An empty subject whose SANs still need their own offsets.
	empty := baseTemplate()
	empty.Subject = nil
	empty.IAN = []GeneralName{DNSName("ian.example")}
	c = buildLeaf(t, empty)
	checkTextView(t, c)
	if got := c.DNSNameTexts(); len(got) != 3 || got[0] != "test.com" || got[2] != "ian.example" {
		t.Errorf("empty subject: DNSNameTexts = %q", got)
	}

	// A certificate assembled by hand and never parsed, with RDNs that
	// do not share a backing array.
	hand := &Certificate{
		Issuer: DN{tpl.Issuer[0], tpl.Issuer[2]},
		Subject: DN{
			{tpl.Subject[1][0], tpl.Subject[0][0]},
			tpl.Subject[2],
			RDN{RawATV(OIDSurname, asn1der.TagUTF8String, []byte("x\xF0"))},
		},
		SAN: tpl.SAN,
		IAN: tpl.IAN,
	}
	checkTextView(t, hand)
	checkTextView(t, &Certificate{})

	// Every label shape, in SAN and IAN: uppercase, a trailing dot, the
	// empty name, the root, an empty label, a wildcard and replaced bytes.
	labels := baseTemplate()
	labels.SAN = []GeneralName{DNSName("WWW.Example.COM."), {Kind: GNDNSName}, DNSName("."), DNSName("a..b"),
		DNSName("*.x"), {Kind: GNDNSName, Bytes: []byte("xn--\xFF.B\xC3\xBC.example")}}
	labels.IAN = []GeneralName{DNSName("CA.Example."), {Kind: GNDNSName}, DNSName("a..b")}
	c = buildLeaf(t, labels)
	checkTextView(t, c)
	if got := len(c.DNSLabels()); got != 19 {
		t.Errorf("%d labels, want 19: %q", got, c.DNSLabels())
	}

	// A parsed certificate's AllAttributes is its parse's ATV array; a
	// DN appended to after the parse makes it a copy again.
	c = buildLeaf(t, tpl)
	if all := c.AllAttributes(); &all[0] != &c.Subject[0][0] || &all[len(all)-1] != &c.Issuer[len(c.Issuer)-1][0] {
		t.Error("parsed certificate: AllAttributes copied its DNs")
	}
	for _, grow := range []func(c *Certificate){
		func(c *Certificate) { c.Subject = append(c.Subject, RDN{TextATV(OIDCommonName, "late.example")}) },
		func(c *Certificate) { c.Issuer = append(c.Issuer, RDN{TextATV(OIDCommonName, "Late CA")}) },
		func(c *Certificate) { c.Subject, c.Issuer = c.Issuer, c.Subject },
	} {
		c = buildLeaf(t, tpl)
		grow(c)
		checkTextView(t, c)
	}
}

// TestAllocBudgetTextView pins the view's layout through its cost: the
// subject-side string, the issuer string and one slice of string
// headers (DNS labels included), however many values there are, and
// whatever they decode from: textViewTemplate's BMP, T.61, Latin-1,
// UTF-16 and invalid bytes cost what UTF-8 does.
func TestAllocBudgetTextView(t *testing.T) {
	tpl := baseTemplate()
	tpl.Subject = append(tpl.Subject, RDN{TextATV(OIDOrganizationName, "Ünïcode Org")}, RDN{TextATV(OIDLocalityName, "Zürich")})
	tpl.SAN = append(tpl.SAN, RFC822Name("ops@test.com"), URIName("https://test.com"))
	tpl.IAN = []GeneralName{DNSName("ca.test.com")}
	for name, c := range map[string]*Certificate{"utf8": buildLeaf(t, tpl), "all shapes": buildLeaf(t, textViewTemplate())} {
		t.Run(name, func(t *testing.T) {
			allocGuard(t, 3, func() {
				c.text = text{}
				_ = c.AttributeTexts()
			})
		})
	}
}
