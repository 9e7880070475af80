package x509cert

import (
	"bytes"
	"strings"

	"repro/internal/asn1der"
	"repro/internal/strenc"
)

// text is a certificate's text view: the Replace-handled text of every
// subject and issuer attribute and of every SAN and IAN GeneralName,
// each decoded once, on the first text access. Lints re-read the same
// names dozens of times per certificate; the index and the monitor
// models read them again.
//
// Every text is a substring of one of two strings: the subject side
// (SAN and IAN names, then subject attributes) or the issuer attributes.
// A caller that keeps a subject name, as the monitor models keep their
// keys, pins the subject side only. DNS labels are substrings of their
// name's text, or of its lowered copy when it has an uppercase letter.
type text struct {
	atvs     []ATV    // AllAttributes: subject, then issuer
	attrs    []string // parallel to atvs
	san      []string // parallel to SAN
	dns      []string // the DNSNames of SAN, then of IAN
	labels   []string // the labels of every dns entry, in order
	emails   []string // SAN RFC822Names
	uris     []string // SAN URIs
	nSubject int32    // how many of attrs are the subject's
	nSANDNS  int32    // how many of dns are the SAN's
	built    bool
}

func (c *Certificate) texts() *text {
	t := &c.text
	if t.built {
		return t
	}
	t.built = true
	sub, iss := c.Subject.Attributes(), c.Issuer.Attributes()
	t.atvs = c.atvs // when both DNs still flatten into the parse's array
	startsAt := func(at int, part []ATV) bool { return len(part) == 0 || &c.atvs[at] == &part[0] }
	if len(c.atvs) != len(sub)+len(iss) || !startsAt(0, sub) || !startsAt(len(sub), iss) {
		t.atvs = append(sub[:len(sub):len(sub)], iss...) // built by hand, or a DN changed
	}
	nNames, nLabels := len(c.SAN)+len(c.IAN), 0
	name := func(i int) GeneralName {
		if i < len(c.SAN) {
			return c.SAN[i]
		}
		return c.IAN[i-len(c.SAN)]
	}
	for i := range nNames {
		if gn := name(i); gn.Kind == GNDNSName {
			nLabels += bytes.Count(gn.Bytes, []byte{'.'}) + 1
		}
	}
	attr := func(i int) (strenc.Method, []byte) {
		v := t.atvs[i].Value
		return v.StringType().StandardMethod(), v.Bytes
	}
	// One allocation holds every text, the per-kind lists and the labels.
	all := make([]string, nNames+len(t.atvs), 2*nNames+len(t.atvs)+nLabels)
	decodeInto(all[:nNames+len(sub)], func(i int) (strenc.Method, []byte) {
		if i < nNames {
			return strenc.ASCII, name(i).Bytes
		}
		return attr(i - nNames)
	})
	decodeInto(all[nNames+len(sub):], func(i int) (strenc.Method, []byte) { return attr(len(sub) + i) })
	names := all[:nNames]
	t.san, t.attrs = names[:len(c.SAN):len(c.SAN)], all[nNames:len(all):len(all)]
	t.nSubject = int32(len(sub))
	pick := func(kind GNKind, from, to int) []string {
		at := len(all)
		for i := from; i < to; i++ {
			if name(i).Kind == kind {
				all = append(all, names[i])
			}
		}
		return all[at:len(all):len(all)]
	}
	at := len(all)
	t.nSANDNS = int32(len(pick(GNDNSName, 0, len(c.SAN))))
	pick(GNDNSName, len(c.SAN), nNames)
	t.dns = all[at:len(all):len(all)]
	t.emails = pick(GNRFC822Name, 0, len(c.SAN))
	t.uris = pick(GNURI, 0, len(c.SAN))
	at = len(all)
	for _, d := range t.dns {
		d = strings.TrimSuffix(strings.ToLower(d), ".")
		for i := strings.IndexByte(d, '.'); i >= 0; i = strings.IndexByte(d, '.') {
			all, d = append(all, d[:i]), d[i+1:]
		}
		all = append(all, d)
	}
	t.labels = all[at:]
	return t
}

// decodeInto decodes value(i) for every i into one string and cuts
// dst[i] from it. The builder is sized from each value's decoded-length
// bound, so text that decodes longer than its bytes (BMP, T.61, Latin-1,
// replaced bytes) does not regrow it: every cut shares its one buffer.
func decodeInto(dst []string, value func(i int) (strenc.Method, []byte)) {
	n := 0
	for i := range dst {
		n += strenc.MaxDecodedLen(value(i))
	}
	var sb strings.Builder
	sb.Grow(n)
	for i := range dst {
		m, b := value(i)
		at := sb.Len()
		_ = strenc.DecodeTo(&sb, m, strenc.Replace, b) // Replace never fails
		dst[i] = sb.String()[at:]
	}
}

// AllAttributes returns the subject attributes followed by the issuer
// attributes, the combined view many character-repertoire lints walk.
// Like every text accessor's result, the slice is memoized and must be
// treated as read-only.
func (c *Certificate) AllAttributes() []ATV { return c.texts().atvs }

// AttributeTexts returns the text of each AllAttributes entry.
func (c *Certificate) AttributeTexts() []string { return c.texts().attrs }

// SubjectTexts returns the text of each Subject.Attributes() entry.
func (c *Certificate) SubjectTexts() []string {
	t := c.texts()
	return t.attrs[:t.nSubject]
}

// IssuerTexts returns the text of each Issuer.Attributes() entry.
func (c *Certificate) IssuerTexts() []string {
	t := c.texts()
	return t.attrs[t.nSubject:]
}

// SANTexts returns the IA5 text of each SAN entry.
func (c *Certificate) SANTexts() []string { return c.texts().san }

// DNSNameTexts returns the text of each DNSName in SAN, then in IAN: the
// names the IDN lints walk.
func (c *Certificate) DNSNameTexts() []string { return c.texts().dns }

// DNSLabels returns the labels of every DNSNameTexts entry, in order:
// each name lowered, its trailing root dot dropped and split at dots.
func (c *Certificate) DNSLabels() []string { return c.texts().labels }

// DNSNames returns the text of each SAN DNSName.
func (c *Certificate) DNSNames() []string {
	t := c.texts()
	return t.dns[:t.nSANDNS]
}

// EmailAddresses returns the text of each SAN RFC822Name.
func (c *Certificate) EmailAddresses() []string { return c.texts().emails }

// URIs returns the text of each SAN URI.
func (c *Certificate) URIs() []string { return c.texts().uris }

// SubjectFirst returns the text of the first subject attribute of type
// oid, or "".
func (c *Certificate) SubjectFirst(oid asn1der.OID) string {
	texts := c.SubjectTexts()
	for i, atv := range c.AllAttributes()[:len(texts)] {
		if atv.Type.Equal(oid) {
			return texts[i]
		}
	}
	return ""
}

// CommonName returns the text of the first subject CN, or "".
func (c *Certificate) CommonName() string { return c.SubjectFirst(OIDCommonName) }

// IssuerString is Issuer.String rendered from the view.
func (c *Certificate) IssuerString() string { return c.Issuer.render(c.IssuerTexts()) }
