package corpus

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/idna"
	"repro/internal/uni"
	"repro/internal/x509cert"
)

// rngPool recycles math/rand generators across slots; each use must
// Seed before drawing. The underlying rngSource is ~5KB, which
// dominated per-slot allocation before pooling.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// entryPool recycles Entry structs. Entries flow back in only through
// ReleaseSlot, so retained-corpus callers just allocate fresh structs.
var entryPool = sync.Pool{New: func() any { return new(Entry) }}

// ReleaseSlot returns a slot's entries (and their certificates) to the
// generation pools. Only streaming consumers that have finished with
// every entry, certificate, DER slice, and memoized view derived from
// the slot may call it; afterwards all of those belong to future slots.
func ReleaseSlot(s *Slot) {
	if s == nil {
		return
	}
	release := func(e *Entry) {
		if e == nil {
			return
		}
		x509cert.ReleaseCertificate(e.Cert)
		*e = Entry{}
		entryPool.Put(e)
	}
	for _, e := range s.Entries {
		release(e)
	}
	release(s.Precert)
	s.Entries, s.Precert = nil, nil
}

// CertClass is the paper's Unicert taxonomy (§2.3).
type CertClass int

// Unicert classes.
const (
	ClassIDNCert      CertClass = iota // IDNs in DNSName-related fields
	ClassOtherUnicert                  // multilingual text beyond printable ASCII
)

func (c CertClass) String() string {
	if c == ClassIDNCert {
		return "IDNCert"
	}
	return "OtherUnicert"
}

// Entry is one corpus certificate with its generation provenance.
type Entry struct {
	DER       []byte
	Cert      *x509cert.Certificate
	IssuerOrg string
	Trust     TrustStatus
	// TrustedThen reports public trust at issuance time (footnote 3).
	TrustedThen bool
	Region      string
	Year        int
	Class       CertClass
	Mutation    MutationKind
	Variant     VariantStrategy
	Precert     bool
}

// Alive reports whether the certificate is still valid at the paper's
// analysis cutoff (April 2025).
func (e *Entry) Alive() bool {
	cutoff := time.Date(2025, 4, 30, 0, 0, 0, 0, time.UTC)
	return !e.Cert.NotAfter.Before(cutoff)
}

// Config parameterizes corpus generation.
type Config struct {
	// Size is the number of leaf Unicerts (default 34,800 ≈ 1:1000 of
	// the paper's dataset).
	Size int
	// Seed makes generation reproducible.
	Seed int64
	// PrecertFraction adds CT-poisoned twins that the §4.1 filter
	// must drop (the paper's logs were 54.7% precertificates).
	PrecertFraction float64
	// VariantFraction controls Table 3 subject-variant pair injection.
	VariantFraction float64
}

// DefaultConfig is the 1:1000-scale configuration.
func DefaultConfig() Config {
	return Config{Size: 34800, Seed: 2025, PrecertFraction: 0.05, VariantFraction: 0.004}
}

// Corpus is the generated dataset.
type Corpus struct {
	Entries []*Entry
	// Precerts are the CT-poisoned entries, kept separate after the
	// §4.1 filter but available for the filter ablation.
	Precerts []*Entry
	// CACerts maps issuer organization to its self-signed CA
	// certificate, enabling the §5.1 chain-reconstruction verification.
	CACerts map[string]*x509cert.Certificate
	cfg     Config
}

// CAFor returns the signing CA certificate for an issuer organization.
func (c *Corpus) CAFor(org string) *x509cert.Certificate { return c.CACerts[org] }

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed bijection used to derive independent per-slot seeds
// from (cfg.Seed, slot index).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// slotSeed derives the RNG seed for one generation slot. Every random
// decision behind slot i — issuer, year, mutation, domain, precert and
// variant draws — flows from this value alone, which is what makes
// sharded generation order-independent.
func slotSeed(seed int64, slot int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) + uint64(slot)))
}

// serialStride spaces the index-derived serial numbers so a slot's
// base certificate (+0), precert twin (+2), and subject variant (+4)
// never collide across slots.
const serialStride = 8

// Slot is the output of one generation slot: the base entry, an
// optional CT-poisoned precert twin, and an optional subject-variant
// sibling. Slots are the unit of parallel generation.
type Slot struct {
	Entries []*Entry // base entry, then variant if drawn
	Precert *Entry
}

// Generator holds the immutable shared state for sharded corpus
// generation: CA/leaf keys and parsed CA certificates. Its GenerateSlot
// method is safe for concurrent use; any interleaving of disjoint slot
// calls yields byte-identical certificates.
type Generator struct {
	cfg     Config
	caKeys  []*x509cert.KeyPair
	leafKey *x509cert.KeyPair
	caCerts map[string]*x509cert.Certificate
	pick    func(*rand.Rand) int
}

// NewGenerator derives the shared key material and CA certificates for
// cfg. The expensive per-slot work is done by GenerateSlot.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Size <= 0 {
		cfg.Size = DefaultConfig().Size
	}
	// One CA key per issuer; one shared leaf key (key material is not
	// under study).
	caKeys := make([]*x509cert.KeyPair, len(Profiles))
	for i := range Profiles {
		k, err := x509cert.GenerateKey(cfg.Seed + int64(i) + 100)
		if err != nil {
			return nil, err
		}
		caKeys[i] = k
	}
	leafKey, err := x509cert.GenerateKey(cfg.Seed + 99)
	if err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:     cfg,
		caKeys:  caKeys,
		leafKey: leafKey,
		caCerts: make(map[string]*x509cert.Certificate, len(Profiles)),
		pick:    newWeightedIssuerPicker(),
	}
	for i, p := range Profiles {
		caTpl := &x509cert.Template{
			SerialNumber: big.NewInt(int64(i) + 1),
			Issuer:       issuerDN(p),
			Subject:      issuerDN(p),
			NotBefore:    time.Date(p.FirstYear, 1, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:     time.Date(2051, 1, 1, 0, 0, 0, 0, time.UTC),
			IsCA:         true,
		}
		caDER, err := x509cert.BuildSelfSigned(caTpl, caKeys[i])
		if err != nil {
			return nil, err
		}
		caCert, err := x509cert.Parse(caDER)
		if err != nil {
			return nil, err
		}
		g.caCerts[p.Organization] = caCert
	}
	return g, nil
}

// Config returns the generator's (defaulted) configuration.
func (g *Generator) Config() Config { return g.cfg }

// Slots returns the number of generation slots. Each slot yields one
// base entry plus probabilistic extras; Assemble truncates the
// concatenation back to exactly cfg.Size entries.
func (g *Generator) Slots() int { return g.cfg.Size }

// GenerateSlot builds slot i from its derived seed. Safe for
// concurrent use with other slot indices.
func (g *Generator) GenerateSlot(i int) (*Slot, error) {
	cfg := g.cfg
	// Recycle rand.Rand instances across slots: Seed re-seeds in place,
	// so the draw sequence is byte-identical to a freshly constructed
	// source (EXPERIMENTS.md golden numbers depend on it) without the
	// ~5KB rngSource allocation per slot.
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(slotSeed(cfg.Seed, i))
	// Fixed per-slot draw order: issuer, year, precert, variant, then
	// the content draws consumed inside generateOne/generateVariant.
	pi := g.pick(rng)
	p := Profiles[pi]
	year := sampleYear(rng, p)
	wantPrecert := cfg.PrecertFraction > 0 && rng.Float64() < cfg.PrecertFraction
	wantVariant := cfg.VariantFraction > 0 && rng.Float64() < cfg.VariantFraction && !p.IDNOnly

	serial := int64(1000) + int64(i)*serialStride
	entry, err := generateOne(rng, p, g.caKeys[pi], g.leafKey, year, serial)
	if err != nil {
		return nil, fmt.Errorf("corpus: slot %d: %v", i, err)
	}
	out := &Slot{Entries: []*Entry{entry}}
	if wantPrecert {
		pre, err := generatePrecert(p, g.caKeys[pi], g.leafKey, entry, serial+2)
		if err != nil {
			return nil, fmt.Errorf("corpus: slot %d precert: %v", i, err)
		}
		out.Precert = pre
	}
	if wantVariant {
		v, err := generateVariant(rng, p, g.caKeys[pi], g.leafKey, entry, serial+4)
		if err != nil {
			return nil, fmt.Errorf("corpus: slot %d variant: %v", i, err)
		}
		out.Entries = append(out.Entries, v)
	}
	return out, nil
}

// Assemble concatenates slot outputs in slot order into a Corpus and
// truncates the entry list to exactly cfg.Size. slots must hold every
// index in [0, Slots()). Truncation drops at most the trailing variant
// overshoot, so the result is identical no matter how the slots were
// scheduled across workers.
func (g *Generator) Assemble(slots []*Slot) *Corpus {
	c := &Corpus{cfg: g.cfg, CACerts: g.caCerts}
	c.Entries = make([]*Entry, 0, g.cfg.Size)
	for _, s := range slots {
		c.Entries = append(c.Entries, s.Entries...)
		if s.Precert != nil {
			c.Precerts = append(c.Precerts, s.Precert)
		}
	}
	if len(c.Entries) > g.cfg.Size {
		c.Entries = c.Entries[:g.cfg.Size]
	}
	return c
}

// Generate builds a corpus deterministically from cfg. It is the
// sequential driver over the sharded Generator; internal/pipeline runs
// the same slots across workers and produces byte-identical output.
func Generate(cfg Config) (*Corpus, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	slots := make([]*Slot, g.Slots())
	for i := range slots {
		if slots[i], err = g.GenerateSlot(i); err != nil {
			return nil, err
		}
	}
	return g.Assemble(slots), nil
}

func newWeightedIssuerPicker() func(*rand.Rand) int {
	cum := make([]float64, len(Profiles))
	total := 0.0
	for i, p := range Profiles {
		total += p.Weight
		cum[i] = total
	}
	return func(rng *rand.Rand) int {
		x := rng.Float64() * total
		for i, c := range cum {
			if x <= c {
				return i
			}
		}
		return len(Profiles) - 1
	}
}

func sampleYear(rng *rand.Rand, p IssuerProfile) int {
	total := 0.0
	for y := p.FirstYear; y <= p.LastYear; y++ {
		total += yearShares[y]
	}
	x := rng.Float64() * total
	for y := p.FirstYear; y <= p.LastYear; y++ {
		x -= yearShares[y]
		if x <= 0 {
			return y
		}
	}
	return p.LastYear
}

// domainPool supplies plausible IDN and ASCII registrable names.
var idnDomainBases = []string{"bücher", "köln-shop", "müller", "中国政府", "пример", "ελλάδα", "한국", "日本語", "çilek", "łódź"}

func sampleDomain(rng *rand.Rand, class CertClass) string {
	if class == ClassIDNCert {
		base := idnDomainBases[rng.Intn(len(idnDomainBases))]
		a, err := idna.ToASCII(base)
		if err != nil {
			a = "example"
		}
		return fmt.Sprintf("host%04d.%s.example", rng.Intn(10000), a)
	}
	return fmt.Sprintf("site-%05d.example", rng.Intn(100000))
}

func sampleValidityDays(rng *rand.Rand, class CertClass, noncompliant bool) int {
	switch {
	case noncompliant:
		// Fig 3: ~50% of NC Unicerts last ≥1 year, >20% exceed 700 days.
		x := rng.Float64()
		switch {
		case x < 0.30:
			return 90 + rng.Intn(120)
		case x < 0.50:
			return 365
		case x < 0.80:
			return 365 + rng.Intn(335)
		default:
			return 700 + rng.Intn(700)
		}
	case class == ClassIDNCert:
		// 89.6% follow the 90-day automation trend.
		if rng.Float64() < 0.896 {
			return 90
		}
		return 365
	default:
		// Other Unicerts: mostly ≤398 days, 10.7% beyond.
		x := rng.Float64()
		switch {
		case x < 0.35:
			return 90 + rng.Intn(120)
		case x < 0.893:
			return 365 + rng.Intn(33)
		default:
			return 399 + rng.Intn(1000)
		}
	}
}

func generateOne(rng *rand.Rand, p IssuerProfile, caKey, leafKey *x509cert.KeyPair, year int, serial int64) (*Entry, error) {
	class := ClassIDNCert
	if !p.IDNOnly && rng.Float64() < 0.4 {
		class = ClassOtherUnicert
	}
	mutation := MutNone
	if rng.Float64() < p.NCRate {
		mutation = sampleMutation(rng, p.IDNOnly)
	} else if rng.Float64() < p.LegacyRate {
		// Pre-effective-date violations: RFC 9598 emails before 2024,
		// RFC 8399 NFC before 2018. Automated DV issuers (IDNOnly)
		// carry no email SANs, so only the NFC channel applies to them.
		switch {
		case p.IDNOnly && year < 2018:
			mutation = MutLegacyIDNNotNFC
		case !p.IDNOnly && year < 2018 && rng.Float64() < 0.2:
			mutation = MutLegacyIDNNotNFC
		case !p.IDNOnly && year < 2024:
			mutation = MutLegacyEmailNonASCII
		}
	}

	domain := sampleDomain(rng, class)
	noncompliant := mutation != MutNone && mutation != MutLegacyEmailNonASCII && mutation != MutLegacyIDNNotNFC
	days := sampleValidityDays(rng, class, noncompliant)
	notBefore := time.Date(year, time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), 0, 0, 0, time.UTC)

	orgText := sampleOrgText(rng, p, class)
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(serial),
		Issuer:       issuerDN(p),
		NotBefore:    notBefore,
		NotAfter:     notBefore.AddDate(0, 0, days),
		SAN:          []x509cert.GeneralName{x509cert.DNSName(domain)},
	}
	if p.IDNOnly {
		tpl.Subject = x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, domain))
	} else {
		tpl.Subject = x509cert.SimpleDN(
			x509cert.TextATV(x509cert.OIDCommonName, domain),
			x509cert.TextATV(x509cert.OIDOrganizationName, orgText),
			x509cert.PrintableATV(x509cert.OIDCountryName, regionCode(p.Region)),
		)
	}
	if mutation != MutNone {
		mutation.apply(tpl, rng, domain, orgText)
	}
	der, err := x509cert.Build(tpl, caKey, leafKey)
	if err != nil {
		return nil, err
	}
	cert, err := x509cert.ParseLint(der, x509cert.ParseStrict)
	if err != nil {
		return nil, err
	}
	e := entryPool.Get().(*Entry)
	*e = Entry{
		DER: der, Cert: cert, IssuerOrg: p.Organization, Trust: p.Trust,
		TrustedThen: p.Trust == TrustPublic || p.TrustedAtIssuance,
		Region:      p.Region, Year: year, Class: class, Mutation: mutation,
	}
	return e, nil
}

func generatePrecert(p IssuerProfile, caKey, leafKey *x509cert.KeyPair, base *Entry, serial int64) (*Entry, error) {
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(serial),
		Issuer:       base.Cert.Issuer,
		Subject:      base.Cert.Subject,
		NotBefore:    base.Cert.NotBefore,
		NotAfter:     base.Cert.NotAfter,
		SAN:          base.Cert.SAN,
		CTPoison:     true,
	}
	der, err := x509cert.Build(tpl, caKey, leafKey)
	if err != nil {
		return nil, err
	}
	cert, err := x509cert.ParseLint(der, x509cert.ParseStrict)
	if err != nil {
		return nil, err
	}
	e := entryPool.Get().(*Entry)
	*e = Entry{
		DER: der, Cert: cert, IssuerOrg: p.Organization, Trust: p.Trust,
		TrustedThen: p.Trust == TrustPublic || p.TrustedAtIssuance,
		Region:      p.Region, Year: base.Year, Class: base.Class, Precert: true,
	}
	return e, nil
}

func sampleOrgText(rng *rand.Rand, p IssuerProfile, class CertClass) string {
	if class == ClassIDNCert {
		return "Example Holdings Ltd"
	}
	scripts := regionScripts[p.Region]
	if len(scripts) == 0 {
		scripts = regionScripts["US"]
	}
	return scripts[rng.Intn(len(scripts))]
}

// issuerDN is the canonical DN shared by an issuer's CA certificate
// and the Issuer field of everything it signs, so chains link.
func issuerDN(p IssuerProfile) x509cert.DN {
	return x509cert.SimpleDN(
		x509cert.PrintableATV(x509cert.OIDCountryName, regionCode(p.Region)),
		x509cert.TextATV(x509cert.OIDOrganizationName, p.Organization),
		x509cert.TextATV(x509cert.OIDCommonName, p.Organization+" CA"),
	)
}

func regionCode(region string) string {
	if len(region) == 2 {
		return region
	}
	return "US"
}

// IsUnicert re-derives the paper's membership test from certificate
// content: non-printable-ASCII anywhere, or IDN labels in
// DNSName-related fields.
func IsUnicert(c *x509cert.Certificate) bool {
	texts := c.AttributeTexts()
	for i, atv := range c.AllAttributes() {
		if uni.HasNonPrintableASCII(texts[i]) {
			return true
		}
		if atv.Value.Tag != 19 && atv.Value.Tag != 12 && atv.Value.Tag != 22 {
			return true // non-standard encodings carry internationalized intent
		}
	}
	for _, name := range c.DNSNames() {
		if idna.IsIDN(name) {
			return true
		}
		if uni.HasNonPrintableASCII(name) {
			return true
		}
	}
	for _, p := range c.Policies {
		for _, et := range p.ExplicitText {
			if uni.HasNonPrintableASCII(et.Decode()) {
				return true
			}
		}
	}
	if strings.Contains(c.CommonName(), "xn--") {
		return true
	}
	return false
}

// IssuerOrganizations returns the distinct issuer organizations in the
// corpus, sorted.
func (c *Corpus) IssuerOrganizations() []string {
	set := map[string]bool{}
	for _, e := range c.Entries {
		set[e.IssuerOrg] = true
	}
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}
