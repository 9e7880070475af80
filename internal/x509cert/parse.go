package x509cert

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/asn1der"
)

// certPool recycles Certificate structs between parses. Certificates
// flow back in only through ReleaseCertificate, so callers that never
// release simply fall through to fresh allocations.
var certPool = sync.Pool{New: func() any { return new(Certificate) }}

// ReleaseCertificate returns a parsed certificate to the reuse pool.
// The caller must hold the only reference: after release every field —
// including memoized slices handed out by AllAttributes, DNSNames, and
// friends — belongs to a future parse. Only steady-state pipelines
// should bother: pipeline.LintDERs releases each certificate after its
// lint, and pipeline.MeasureStream each slot's (via corpus.ReleaseSlot).
// One-shot callers can let the garbage collector do its job.
func ReleaseCertificate(c *Certificate) {
	if c == nil {
		return
	}
	*c = Certificate{}
	certPool.Put(c)
}

// ParseMode selects structural strictness for certificate parsing.
type ParseMode int

const (
	// ParseStrict enforces DER throughout.
	ParseStrict ParseMode = iota
	// ParseLenient accepts BER length forms in the certificate's
	// structure, as the tolerant libraries in the paper's test set do.
	ParseLenient
)

// Parse decodes a DER certificate in strict mode.
func Parse(der []byte) (*Certificate, error) { return ParseWithMode(der, ParseStrict) }

// ParseWithMode decodes a DER (or, leniently, BER) certificate. The
// input is copied once up front, so the returned Certificate owns all
// of its memory and the caller may mutate or discard der freely.
func ParseWithMode(der []byte, mode ParseMode) (*Certificate, error) {
	owned := make([]byte, len(der))
	copy(owned, der)
	return ParseLint(owned, mode)
}

// ParseLint is the zero-copy parse used by lint-only pipelines: every
// byte field of the returned Certificate (Raw, RawTBS, extension
// values, name bytes, attribute values, …) is a subslice of der.
//
// Ownership contract: the caller must keep der alive and unmodified
// for as long as the Certificate (or anything derived from it, such as
// lint findings that retain name bytes) is in use. Borrowing is
// illegal when der is a reused read buffer or will be mutated —
// use ParseWithMode there instead. Parse scratch (the TLV node tree,
// extension values included) comes from a pooled arena and is released
// before returning; the Certificate retains no arena memory.
func ParseLint(der []byte, mode ParseMode) (*Certificate, error) {
	dm := asn1der.StrictDER
	if mode == ParseLenient {
		dm = asn1der.LenientBER
	}
	arena := asn1der.AcquireArena()
	defer asn1der.ReleaseArena(arena)
	root, err := asn1der.NewDecoder(dm).WithArena(arena).Parse(der)
	if err != nil {
		return nil, err
	}
	if _, err := root.Expect(asn1der.ClassUniversal, asn1der.TagSequence); err != nil {
		return nil, fmt.Errorf("x509cert: certificate: %v", err)
	}
	if len(root.Children) != 3 {
		return nil, fmt.Errorf("x509cert: certificate has %d elements, want 3", len(root.Children))
	}
	c := certPool.Get().(*Certificate)
	*c = Certificate{Raw: root.Raw}
	tbs := root.Children[0]
	if _, err := tbs.Expect(asn1der.ClassUniversal, asn1der.TagSequence); err != nil {
		return nil, fmt.Errorf("x509cert: tbsCertificate: %v", err)
	}
	c.RawTBS = tbs.Raw
	// Extension values are DER in both modes: a lenient parse keeps a
	// BER-length extension raw and records a ParseWarning.
	ext := asn1der.NewDecoder(asn1der.StrictDER).WithArena(arena)
	if err := parseTBS(c, tbs, ext, mode); err != nil {
		return nil, err
	}
	sigAlg := root.Children[1]
	if len(sigAlg.Children) == 0 {
		return nil, errors.New("x509cert: empty signatureAlgorithm")
	}
	if oid, err := sigAlg.Children[0].OID(); err == nil {
		c.SignatureAlgorithm = oid
	}
	sig, unused, err := root.Children[2].BitString()
	if err != nil {
		return nil, fmt.Errorf("x509cert: signatureValue: %v", err)
	}
	if unused != 0 {
		return nil, errors.New("x509cert: signatureValue has unused bits")
	}
	c.SignatureValue = sig
	return c, nil
}

func parseTBS(c *Certificate, tbs *asn1der.Value, ext *asn1der.Decoder, mode ParseMode) error {
	i := 0
	next := func() *asn1der.Value {
		if i >= len(tbs.Children) {
			return nil
		}
		v := tbs.Children[i]
		i++
		return v
	}
	v := next()
	if v == nil {
		return errors.New("x509cert: empty tbsCertificate")
	}
	// Optional [0] EXPLICIT version.
	c.Version = 1
	if v.Tag.Class == asn1der.ClassContextSpecific && v.Tag.Number == 0 {
		if len(v.Children) != 1 {
			return errors.New("x509cert: malformed version")
		}
		n, err := v.Children[0].Int()
		if err != nil {
			return fmt.Errorf("x509cert: version: %v", err)
		}
		c.Version = int(n) + 1
		v = next()
	}
	if v == nil {
		return errors.New("x509cert: missing serialNumber")
	}
	serial, err := v.BigInt()
	if err != nil {
		return fmt.Errorf("x509cert: serialNumber: %v", err)
	}
	c.SerialNumber = serial

	if v = next(); v == nil {
		return errors.New("x509cert: missing signature algorithm")
	}
	// inner signature AlgorithmIdentifier — ignored beyond structure.

	// Subject and issuer (the value after validity and the next one)
	// share one ATV and one RDN array, subject first, each DN capped at
	// its own share, so the whole ATV array is AllAttributes.
	var ia, ir, sa, sr int
	if i+2 < len(tbs.Children) {
		ia, ir = dnSize(tbs.Children[i])
		sa, sr = dnSize(tbs.Children[i+2])
	}
	c.atvs = make([]ATV, sa+ia)
	rdns := make(DN, sr+ir)
	if v = next(); v == nil {
		return errors.New("x509cert: missing issuer")
	}
	if c.Issuer, err = parseDNInto(v, c.atvs[sa:sa], rdns[sr:sr]); err != nil {
		return fmt.Errorf("x509cert: issuer: %v", err)
	}

	if v = next(); v == nil {
		return errors.New("x509cert: missing validity")
	}
	if len(v.Children) != 2 {
		return errors.New("x509cert: malformed validity")
	}
	timeOf := (*asn1der.Value).Time
	if mode == ParseStrict {
		timeOf = (*asn1der.Value).DERTime
	}
	if c.NotBefore, err = timeOf(v.Children[0]); err != nil {
		return fmt.Errorf("x509cert: notBefore: %v", err)
	}
	if c.NotAfter, err = timeOf(v.Children[1]); err != nil {
		return fmt.Errorf("x509cert: notAfter: %v", err)
	}

	if v = next(); v == nil {
		return errors.New("x509cert: missing subject")
	}
	if c.Subject, err = parseDNInto(v, c.atvs[:0:sa], rdns[:0:sr]); err != nil {
		return fmt.Errorf("x509cert: subject: %v", err)
	}

	if v = next(); v == nil {
		return errors.New("x509cert: missing subjectPublicKeyInfo")
	}
	if err := parseSPKI(c, v); err != nil {
		return err
	}

	for v = next(); v != nil; v = next() {
		if v.Tag.Class == asn1der.ClassContextSpecific && v.Tag.Number == 3 {
			if err := parseExtensions(c, v, ext); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseDN decodes an RDNSequence into backing arrays of its own.
func parseDN(v *asn1der.Value) (DN, error) {
	atvs, rdns := dnSize(v)
	return parseDNInto(v, make([]ATV, 0, atvs), make(DN, 0, rdns))
}

// dnSize counts the ATVs and the RDNs of an RDNSequence.
func dnSize(v *asn1der.Value) (atvs, rdns int) {
	for _, set := range v.Children {
		atvs += len(set.Children)
	}
	return atvs, len(v.Children)
}

// parseDNInto decodes an RDNSequence, appending its ATVs to flat and
// its RDNs to dn. Every RDN is a subslice of flat, so when flat holds
// this DN's ATVs alone, DN.Attributes flattens by reslicing instead of
// copying.
func parseDNInto(v *asn1der.Value, flat []ATV, dn DN) (DN, error) {
	if _, err := v.Expect(asn1der.ClassUniversal, asn1der.TagSequence); err != nil {
		return nil, err
	}
	for _, set := range v.Children {
		if _, err := set.Expect(asn1der.ClassUniversal, asn1der.TagSet); err != nil {
			return nil, err
		}
		start := len(flat)
		for _, seq := range set.Children {
			if _, err := seq.Expect(asn1der.ClassUniversal, asn1der.TagSequence); err != nil {
				return nil, err
			}
			if len(seq.Children) != 2 {
				return nil, errors.New("malformed AttributeTypeAndValue")
			}
			oid, err := seq.Children[0].OID()
			if err != nil {
				return nil, err
			}
			val := seq.Children[1]
			flat = append(flat, ATV{
				Type:  oid,
				Value: AttributeValue{Tag: val.Tag.Number, Bytes: val.Bytes},
			})
		}
		dn = append(dn, RDN(flat[start:len(flat)]))
	}
	return dn, nil
}

func parseSPKI(c *Certificate, v *asn1der.Value) error {
	if _, err := v.Expect(asn1der.ClassUniversal, asn1der.TagSequence); err != nil {
		return fmt.Errorf("x509cert: spki: %v", err)
	}
	c.RawSPKI = v.Raw
	if len(v.Children) != 2 {
		return errors.New("x509cert: malformed spki")
	}
	alg := v.Children[0]
	if len(alg.Children) >= 1 {
		if oid, err := alg.Children[0].OID(); err == nil {
			c.PublicKeyAlgo = oid
		}
	}
	if len(alg.Children) >= 2 {
		if oid, err := alg.Children[1].OID(); err == nil {
			c.PublicKeyCurve = oid
		}
	}
	key, unused, err := v.Children[1].BitString()
	if err != nil {
		return fmt.Errorf("x509cert: spki key: %v", err)
	}
	if unused != 0 {
		return errors.New("x509cert: spki key has unused bits")
	}
	c.PublicKeyBytes = key
	return nil
}

func parseExtensions(c *Certificate, wrapper *asn1der.Value, d *asn1der.Decoder) error {
	if len(wrapper.Children) != 1 {
		return errors.New("x509cert: malformed extensions wrapper")
	}
	seq := wrapper.Children[0]
	c.Extensions = slices.Grow(c.Extensions, len(seq.Children))
	for _, ext := range seq.Children {
		if len(ext.Children) < 2 {
			return errors.New("x509cert: malformed extension")
		}
		oid, err := ext.Children[0].OID()
		if err != nil {
			return err
		}
		e := Extension{OID: oid}
		rest := ext.Children[1:]
		if rest[0].Tag.Number == asn1der.TagBoolean && rest[0].Tag.Class == asn1der.ClassUniversal {
			crit, err := rest[0].Bool()
			if err != nil {
				return err
			}
			e.Critical = crit
			rest = rest[1:]
		}
		if len(rest) != 1 {
			return errors.New("x509cert: malformed extension value")
		}
		if _, err := rest[0].Expect(asn1der.ClassUniversal, asn1der.TagOctetString); err != nil {
			return err
		}
		e.Value = rest[0].Bytes
		c.Extensions = append(c.Extensions, e)
		if err := interpretExtension(c, e, d); err != nil {
			// Recoverable: keep the raw extension, note the problem.
			c.ParseWarnings = append(c.ParseWarnings, fmt.Sprintf("%s: %v", oid, err))
		}
	}
	return nil
}

func interpretExtension(c *Certificate, e Extension, d *asn1der.Decoder) error {
	switch {
	case e.OID.Equal(OIDExtSubjectAltName):
		gns, err := parseGeneralNames(d, e.Value)
		if err != nil {
			return err
		}
		c.SAN = gns
	case e.OID.Equal(OIDExtIssuerAltName):
		gns, err := parseGeneralNames(d, e.Value)
		if err != nil {
			return err
		}
		c.IAN = gns
	case e.OID.Equal(OIDExtBasicConstraints):
		v, err := d.Parse(e.Value)
		if err != nil {
			return err
		}
		c.HasBasicConstraints = true
		if len(v.Children) > 0 && v.Children[0].Tag.Number == asn1der.TagBoolean {
			isCA, err := v.Children[0].Bool()
			if err != nil {
				return err
			}
			c.IsCA = isCA
		}
	case e.OID.Equal(OIDExtCRLDistribution):
		gns, err := parseCRLDP(d, e.Value)
		if err != nil {
			return err
		}
		c.CRLDistributionPoints = gns
	case e.OID.Equal(OIDExtAuthorityInfo):
		ads, err := parseAccessDescriptions(d, e.Value)
		if err != nil {
			return err
		}
		c.AIA = ads
	case e.OID.Equal(OIDExtSubjectInfo):
		ads, err := parseAccessDescriptions(d, e.Value)
		if err != nil {
			return err
		}
		c.SIA = ads
	case e.OID.Equal(OIDExtCertPolicies):
		pols, err := parsePolicies(d, e.Value)
		if err != nil {
			return err
		}
		c.Policies = pols
	case e.OID.Equal(OIDExtCTPoison):
		c.HasCTPoison = true
	}
	return nil
}

func parseGeneralNames(d *asn1der.Decoder, der []byte) ([]GeneralName, error) {
	v, err := d.Parse(der)
	if err != nil {
		return nil, err
	}
	if _, err := v.Expect(asn1der.ClassUniversal, asn1der.TagSequence); err != nil {
		return nil, err
	}
	out := make([]GeneralName, 0, len(v.Children))
	for _, child := range v.Children {
		gn, err := parseGeneralName(child)
		if err != nil {
			return nil, err
		}
		out = append(out, gn)
	}
	return out, nil
}

func parseGeneralName(v *asn1der.Value) (GeneralName, error) {
	if v.Tag.Class != asn1der.ClassContextSpecific {
		return GeneralName{}, fmt.Errorf("GeneralName has tag %s", v.Tag)
	}
	gn := GeneralName{Kind: GNKind(v.Tag.Number)}
	switch gn.Kind {
	case GNDirectoryName:
		if len(v.Children) != 1 {
			return GeneralName{}, errors.New("malformed directoryName")
		}
		dn, err := parseDN(v.Children[0])
		if err != nil {
			return GeneralName{}, err
		}
		gn.Directory = dn
	case GNOtherName, GNEDIPartyName, GNX400Address:
		gn.Bytes = v.Raw
	default:
		gn.Bytes = v.Bytes
	}
	return gn, nil
}

func parseCRLDP(d *asn1der.Decoder, der []byte) ([]GeneralName, error) {
	v, err := d.Parse(der)
	if err != nil {
		return nil, err
	}
	var out []GeneralName
	for _, dp := range v.Children {
		for _, field := range dp.Children {
			if field.Tag.Class == asn1der.ClassContextSpecific && field.Tag.Number == 0 {
				// distributionPoint -> fullName [0] GeneralNames
				for _, dpn := range field.Children {
					if dpn.Tag.Class == asn1der.ClassContextSpecific && dpn.Tag.Number == 0 {
						for _, gnv := range dpn.Children {
							gn, err := parseGeneralName(gnv)
							if err != nil {
								return nil, err
							}
							out = append(out, gn)
						}
					}
				}
			}
		}
	}
	return out, nil
}

func parseAccessDescriptions(d *asn1der.Decoder, der []byte) ([]AccessDescription, error) {
	v, err := d.Parse(der)
	if err != nil {
		return nil, err
	}
	var out []AccessDescription
	for _, ad := range v.Children {
		if len(ad.Children) != 2 {
			return nil, errors.New("malformed AccessDescription")
		}
		method, err := ad.Children[0].OID()
		if err != nil {
			return nil, err
		}
		gn, err := parseGeneralName(ad.Children[1])
		if err != nil {
			return nil, err
		}
		out = append(out, AccessDescription{Method: method, Location: gn})
	}
	return out, nil
}

func parsePolicies(d *asn1der.Decoder, der []byte) ([]PolicyInformation, error) {
	v, err := d.Parse(der)
	if err != nil {
		return nil, err
	}
	var out []PolicyInformation
	for _, pi := range v.Children {
		if len(pi.Children) == 0 {
			return nil, errors.New("malformed PolicyInformation")
		}
		oid, err := pi.Children[0].OID()
		if err != nil {
			return nil, err
		}
		p := PolicyInformation{Policy: oid}
		if len(pi.Children) > 1 {
			for _, q := range pi.Children[1].Children {
				if len(q.Children) != 2 {
					continue
				}
				qid, err := q.Children[0].OID()
				if err != nil {
					continue
				}
				switch {
				case qid.Equal(OIDQtCPS):
					p.CPSURIs = append(p.CPSURIs, string(q.Children[1].Bytes))
				case qid.Equal(OIDQtNotice):
					for _, un := range q.Children[1].Children {
						if asn1der.IsStringTag(un.Tag.Number) && un.Tag.Class == asn1der.ClassUniversal {
							p.ExplicitText = append(p.ExplicitText, DisplayText{Tag: un.Tag.Number, Bytes: un.Bytes})
						}
					}
				}
			}
		}
		out = append(out, p)
	}
	return out, nil
}
