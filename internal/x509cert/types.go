package x509cert

import (
	"fmt"
	"math/big"
	"strings"
	"time"

	"repro/internal/asn1der"
	"repro/internal/strenc"
)

// AttributeValue is a DN attribute value exactly as encoded: its ASN.1
// string tag and content octets. The certificate generator writes
// arbitrary tag/byte combinations here; the lints and parser models
// interpret them.
type AttributeValue struct {
	Tag   int // universal string tag number
	Bytes []byte
}

// StringType returns the strenc view of the value's tag.
func (v AttributeValue) StringType() strenc.StringType { return strenc.StringType(v.Tag) }

// MustDecode decodes with the standard method for the value's tag and
// Replace handling, which never fails.
func (v AttributeValue) MustDecode() string {
	s, _ := strenc.Decode(v.StringType().StandardMethod(), strenc.Replace, v.Bytes)
	return s
}

// ATV is one AttributeTypeAndValue.
type ATV struct {
	Type  asn1der.OID
	Value AttributeValue
}

// RDN is a RelativeDistinguishedName: a SET of one or more ATVs.
type RDN []ATV

// DN is an RDNSequence.
type DN []RDN

// Attributes flattens the DN into its ATVs in encoding order.
//
// DNs produced by parseDN and SimpleDN store every RDN as a subslice
// of one contiguous backing array; for those the flattening is a
// zero-allocation reslice of the first RDN. The layout is verified by
// pointer identity, so a DN assembled by hand from independent slices
// still flattens correctly, by copying. Callers must treat the result
// as read-only either way.
func (d DN) Attributes() []ATV {
	if len(d) == 0 {
		return nil
	}
	n := 0
	for _, rdn := range d {
		n += len(rdn)
	}
	if n == 0 {
		return nil
	}
	if n <= cap(d[0]) {
		flat := d[0][:n]
		off := len(d[0])
		contiguous := true
	outer:
		for _, rdn := range d[1:] {
			for j := range rdn {
				if &rdn[j] != &flat[off] {
					contiguous = false
					break outer
				}
				off++
			}
		}
		if contiguous {
			return flat
		}
	}
	out := make([]ATV, 0, n)
	for _, rdn := range d {
		out = append(out, rdn...)
	}
	return out
}

// Count returns how many attributes of the given type the DN carries,
// without decoding or allocating.
func (d DN) Count(oid asn1der.OID) int {
	n := 0
	for _, rdn := range d {
		for _, atv := range rdn {
			if atv.Type.Equal(oid) {
				n++
			}
		}
	}
	return n
}

// First returns the first value of the attribute type, or "".
func (d DN) First(oid asn1der.OID) string {
	for _, rdn := range d {
		for _, atv := range rdn {
			if atv.Type.Equal(oid) {
				return atv.Value.MustDecode()
			}
		}
	}
	return ""
}

// Last returns the last value of the attribute type, or "". (PyOpenSSL
// takes the first duplicated CN; Go's crypto takes the last — §4.3.1.)
func (d DN) Last(oid asn1der.OID) string {
	out := ""
	for _, rdn := range d {
		for _, atv := range rdn {
			if atv.Type.Equal(oid) {
				out = atv.Value.MustDecode()
			}
		}
	}
	return out
}

// CommonName returns the first Subject CN.
func (d DN) CommonName() string { return d.First(OIDCommonName) }

// String renders the DN in RFC 4514 form with compliant escaping.
func (d DN) String() string {
	atvs := d.Attributes()
	texts := make([]string, len(atvs))
	for i, atv := range atvs {
		texts[i] = atv.Value.MustDecode()
	}
	return d.render(texts)
}

// render is String over texts, the text of each attribute parallel to
// d.Attributes().
func (d DN) render(texts []string) string {
	var sb strings.Builder
	sb.Grow(32 * len(d))
	// RFC 4514 renders RDNs in reverse order; we keep encoding order for
	// readability, as OpenSSL's oneline format does.
	k := 0
	for i, rdn := range d {
		if i > 0 {
			sb.WriteByte(',')
		}
		for j, atv := range rdn {
			if j > 0 {
				sb.WriteByte('+')
			}
			sb.WriteString(AttrName(atv.Type))
			sb.WriteByte('=')
			sb.WriteString(strenc.EscapeValue(strenc.RFC4514, texts[k]))
			k++
		}
	}
	return sb.String()
}

// Empty reports whether the DN has no attributes.
func (d DN) Empty() bool {
	for _, rdn := range d {
		if len(rdn) > 0 {
			return false
		}
	}
	return true
}

// GNKind is a GeneralName CHOICE arm (RFC 5280 §4.2.1.6 tag numbers).
type GNKind int

// GeneralName kinds.
const (
	GNOtherName     GNKind = 0
	GNRFC822Name    GNKind = 1
	GNDNSName       GNKind = 2
	GNX400Address   GNKind = 3
	GNDirectoryName GNKind = 4
	GNEDIPartyName  GNKind = 5
	GNURI           GNKind = 6
	GNIPAddress     GNKind = 7
	GNRegisteredID  GNKind = 8
)

func (k GNKind) String() string {
	switch k {
	case GNOtherName:
		return "OtherName"
	case GNRFC822Name:
		return "RFC822Name"
	case GNDNSName:
		return "DNSName"
	case GNDirectoryName:
		return "DirectoryName"
	case GNEDIPartyName:
		return "EDIPartyName"
	case GNURI:
		return "URI"
	case GNIPAddress:
		return "IPAddress"
	case GNRegisteredID:
		return "RegisteredID"
	default:
		return fmt.Sprintf("GeneralName(%d)", int(k))
	}
}

// GeneralName is one GeneralName value. For the IA5String-carried kinds
// (RFC822Name, DNSName, URI) Bytes holds the content octets exactly as
// encoded; Directory is set for DirectoryName.
type GeneralName struct {
	Kind      GNKind
	Bytes     []byte
	Directory DN
}

// MustText decodes the IA5String payload with Replace handling.
func (g GeneralName) MustText() string {
	s, _ := strenc.Decode(strenc.ASCII, strenc.Replace, g.Bytes)
	return s
}

// AccessDescription is one AIA/SIA entry.
type AccessDescription struct {
	Method   asn1der.OID
	Location GeneralName
}

// DisplayText is the CHOICE used by CertificatePolicies userNotice
// explicitText; Tag records which string type the issuer chose, which
// is what the paper's most-triggered lint checks.
type DisplayText struct {
	Tag   int
	Bytes []byte
}

// Decode interprets the display text with its declared encoding.
func (dt DisplayText) Decode() string {
	s, _ := strenc.Decode(strenc.StringType(dt.Tag).StandardMethod(), strenc.Replace, dt.Bytes)
	return s
}

// PolicyInformation is one CertificatePolicies entry.
type PolicyInformation struct {
	Policy       asn1der.OID
	CPSURIs      []string
	ExplicitText []DisplayText
}

// Extension is a raw certificate extension.
type Extension struct {
	OID      asn1der.OID
	Critical bool
	Value    []byte
}

// Certificate is a parsed (or built) X.509 v3 certificate.
type Certificate struct {
	Raw    []byte
	RawTBS []byte

	Version            int
	SerialNumber       *big.Int
	SignatureAlgorithm asn1der.OID
	Issuer             DN
	Subject            DN
	NotBefore          time.Time
	NotAfter           time.Time

	RawSPKI        []byte
	PublicKeyAlgo  asn1der.OID
	PublicKeyCurve asn1der.OID
	PublicKeyBytes []byte // uncompressed EC point

	Extensions []Extension

	// Parsed extension conveniences.
	SAN                   []GeneralName
	IAN                   []GeneralName
	CRLDistributionPoints []GeneralName
	AIA                   []AccessDescription
	SIA                   []AccessDescription
	Policies              []PolicyInformation
	IsCA                  bool
	HasBasicConstraints   bool
	HasCTPoison           bool

	SignatureValue []byte

	// ParseWarnings records, in either mode, each extension whose value
	// did not decode (extension values are DER in both) and is kept raw.
	ParseWarnings []string

	// Lazily-built memos for hot accessors. Lints re-walk the same
	// certificate dozens of times per run; each memo is filled on first
	// use and shared read-only after. Not goroutine-safe to fill
	// concurrently: the pipeline lints each certificate from exactly
	// one worker, which is the ownership contract these rely on.
	text text
	atvs []ATV // the parse's ATV array: subject's, then issuer's
}

// Extension returns the raw extension with the given OID, if present.
func (c *Certificate) Extension(oid asn1der.OID) (Extension, bool) {
	for _, e := range c.Extensions {
		if e.OID.Equal(oid) {
			return e, true
		}
	}
	return Extension{}, false
}

// ValidityDays returns the certificate lifetime in whole days.
func (c *Certificate) ValidityDays() int {
	return int(c.NotAfter.Sub(c.NotBefore).Hours() / 24)
}

// IsPrecertificate reports whether the CT poison extension is present.
func (c *Certificate) IsPrecertificate() bool { return c.HasCTPoison }
