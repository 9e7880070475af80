// Package lint is the Unicert linter framework: a registry of
// constraint lints with severities, standards sources, taxonomy tags,
// and effective dates, plus a runner that applies them to parsed
// certificates. It mirrors the extension model the paper applied to
// zlint (§3.1.2) — including per-lint effective dates, which gate
// whether a rule applies to a certificate by its issuance date.
package lint

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/x509cert"
)

// Severity grades a finding, mapped from the standards' requirement
// levels (MUST → Error, SHOULD → Warning).
type Severity int

// Severities.
const (
	Notice Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Notice:
		return "notice"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Source names the standard a lint derives from.
type Source string

// Lint sources.
const (
	SourceRFC5280   Source = "RFC5280"
	SourceRFC6818   Source = "RFC6818"
	SourceRFC8399   Source = "RFC8399"
	SourceRFC9549   Source = "RFC9549"
	SourceRFC9598   Source = "RFC9598"
	SourceRFC1034   Source = "RFC1034"
	SourceIDNA      Source = "IDNA2008"
	SourceCABF      Source = "CABF_BR"
	SourceCommunity Source = "Community"
)

// Taxonomy is the paper's noncompliance classification (Table 1).
type Taxonomy int

// Noncompliance types.
const (
	T1InvalidCharacter Taxonomy = iota
	T2BadNormalization
	T3IllegalFormat
	T3InvalidEncoding
	T3InvalidStructure
	T3DiscouragedField
	numTaxonomies
)

// Taxonomies lists all classes in Table 1 order.
func Taxonomies() []Taxonomy {
	out := make([]Taxonomy, numTaxonomies)
	for i := range out {
		out[i] = Taxonomy(i)
	}
	return out
}

func (t Taxonomy) String() string {
	switch t {
	case T1InvalidCharacter:
		return "Invalid Character"
	case T2BadNormalization:
		return "Bad Normalization"
	case T3IllegalFormat:
		return "Illegal Format"
	case T3InvalidEncoding:
		return "Invalid Encoding"
	case T3InvalidStructure:
		return "Invalid Structure"
	case T3DiscouragedField:
		return "Discouraged Field"
	default:
		return fmt.Sprintf("Taxonomy(%d)", int(t))
	}
}

// Group returns the coarse type (T1/T2/T3).
func (t Taxonomy) Group() string {
	switch t {
	case T1InvalidCharacter:
		return "T1"
	case T2BadNormalization:
		return "T2"
	default:
		return "T3"
	}
}

// Status is a lint outcome for one certificate.
type Status uint8

// Statuses.
const (
	Pass Status = iota
	NA          // the lint does not apply to this certificate
	NE          // not effective: certificate predates the lint's date
	Fail
)

func (s Status) String() string {
	switch s {
	case Pass:
		return "pass"
	case NA:
		return "NA"
	case NE:
		return "NE"
	case Fail:
		return "fail"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is what a lint's Run returns.
type Result struct {
	Status  Status
	Details string
}

// PassResult is the zero finding.
var PassResult = Result{Status: Pass}

// Failf builds a failing result with formatted details.
func Failf(format string, args ...any) Result {
	return Result{Status: Fail, Details: fmt.Sprintf(format, args...)}
}

// Lint is one registered constraint rule.
type Lint struct {
	// Name follows the zlint convention: severity prefix, source infix
	// (e.g. e_rfc_dns_idn_malformed_unicode).
	Name        string
	Description string
	Severity    Severity
	Source      Source
	Taxonomy    Taxonomy
	// New marks the 50 Unicode/IDN rules the paper added beyond the
	// coverage of existing linters.
	New bool
	// EffectiveDate gates application: certificates issued before it
	// are reported NE rather than Fail (§3.1.2).
	EffectiveDate time.Time
	// CheckApplies filters certificates the rule is relevant to.
	CheckApplies func(c *x509cert.Certificate) bool
	// Run evaluates the rule; only called when CheckApplies is true.
	Run func(c *x509cert.Certificate) Result

	// hits counts Fail outcomes when the registry has metrics enabled;
	// nil (a no-op) otherwise. One atomic add per failing finding.
	hits *obs.Counter
}

// Registry stores lints by name.
type Registry struct {
	mu       sync.RWMutex
	lints    map[string]*Lint
	snapshot []*Lint // sorted, immutable; nil until first Snapshot after a Register
	obsReg   *obs.Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{lints: make(map[string]*Lint)} }

// Register adds a lint; duplicate names are a programming error.
func (r *Registry) Register(l *Lint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l.Name == "" || l.Run == nil {
		panic("lint: lint needs a name and a Run function")
	}
	if _, dup := r.lints[l.Name]; dup {
		panic("lint: duplicate lint " + l.Name)
	}
	if len(r.lints) == 1<<16 {
		panic("lint: a registry holds at most 65536 lints") // Finding's index is a uint16
	}
	if l.CheckApplies == nil {
		l.CheckApplies = func(*x509cert.Certificate) bool { return true }
	}
	if r.obsReg != nil {
		l.hits = r.obsReg.Counter("lint_hits_total", "lint", l.Name)
	}
	r.lints[l.Name] = l
	r.snapshot = nil // invalidate; rebuilt lazily by Snapshot
}

// EnableMetrics attaches a per-lint Fail counter
// (lint_hits_total{lint="…"}) for every registered — and subsequently
// registered — lint. The per-certificate cost is one atomic add per
// failing finding; passing certificates pay nothing. These counters
// are the live view of the Table 1 reproduction: each one is a
// Table 1/Table 11 cell accumulating as the pipeline runs.
//
// Call it during setup, before concurrent Run traffic: it rewrites
// each lint's counter pointer, which Run reads unlocked.
func (r *Registry) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	reg.Help("lint_hits_total", "Fail outcomes per lint (live Table 1/11 accounting).")
	r.obsReg = reg
	for _, l := range r.lints {
		l.hits = reg.Counter("lint_hits_total", "lint", l.Name)
	}
}

// Snapshot returns the registry's lints pre-sorted by name as an
// immutable shared slice. It is captured once per registry mutation and
// reused by every Run, so the per-certificate hot path pays neither the
// lock-protected map walk nor the sort. Callers must not modify the
// returned slice.
func (r *Registry) Snapshot() []*Lint {
	r.mu.RLock()
	s := r.snapshot
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snapshot == nil {
		s = make([]*Lint, 0, len(r.lints))
		for _, l := range r.lints {
			s = append(s, l)
		}
		sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
		r.snapshot = s
	}
	return r.snapshot
}

// All returns every lint sorted by name. The slice is the caller's to
// keep; it is a copy of the shared snapshot.
func (r *Registry) All() []*Lint {
	s := r.Snapshot()
	out := make([]*Lint, len(s))
	copy(out, s)
	return out
}

// ByName looks up one lint.
func (r *Registry) ByName(name string) (*Lint, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	l, ok := r.lints[name]
	return l, ok
}

// Count returns the number of registered lints.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.lints)
}

// Global is the default registry the lints package populates.
var Global = NewRegistry()

// Options configures a lint run.
type Options struct {
	// IgnoreEffectiveDates applies every rule regardless of issuance
	// date — the ablation that turns 249.3K findings into 1.8M.
	IgnoreEffectiveDates bool
	// Only restricts the run to the named lints (nil = all).
	Only map[string]bool
}

// Finding is one lint outcome: its status and the index of its lint in
// the registry snapshot the run walked. It holds no pointer, so a
// certificate's findings are one allocation the collector never scans;
// CertResult.Lint and CertResult.Details resolve the rest.
type Finding struct {
	Status Status
	lint   uint16
}

// Failure is one failed lint and its details.
type Failure struct {
	Lint    *Lint
	Details string
}

// detail holds a finding's non-empty Details, keyed by its lint index.
type detail struct {
	lint uint16
	text string
}

// CertResult aggregates the findings for one certificate.
type CertResult struct {
	Findings []Finding
	lints    []*Lint  // the snapshot Findings index
	details  []detail // only the non-empty Details
	failed   int
}

// Lint returns the lint of f, one of cr.Findings.
func (cr *CertResult) Lint(f Finding) *Lint { return cr.lints[f.lint] }

// Details returns the details of f, one of cr.Findings.
func (cr *CertResult) Details(f Finding) string {
	if i := slices.IndexFunc(cr.details, func(d detail) bool { return d.lint == f.lint }); i >= 0 {
		return cr.details[i].text
	}
	return ""
}

// Failed returns the failed lints with their details, or nil for a
// certificate that failed none.
func (cr *CertResult) Failed() []Failure {
	if cr.failed == 0 {
		return nil
	}
	out := make([]Failure, 0, cr.failed)
	for _, f := range cr.Findings {
		if f.Status == Fail {
			out = append(out, Failure{Lint: cr.Lint(f), Details: cr.Details(f)})
		}
	}
	return out
}

// Noncompliant reports whether any lint failed.
func (cr *CertResult) Noncompliant() bool { return cr.failed > 0 }

// detailChunks hold the details of many results, so a result's details
// cost it no allocation of its own. A Run's first detail makes sure its
// chunk has room for one from every lint left; a chunk lives as long as
// any result carved from it.
var detailChunks = sync.Pool{New: func() any { return new([]detail) }}

// Run applies every applicable lint in the registry to the certificate.
// It walks the shared pre-sorted snapshot, so concurrent Runs touch no
// lock and no per-call sort.
func (r *Registry) Run(c *x509cert.Certificate, opts Options) *CertResult {
	snap := r.Snapshot()
	res := &CertResult{Findings: make([]Finding, 0, len(snap)), lints: snap}
	chunk := detailChunks.Get().(*[]detail)
	start := len(*chunk)
	for i, l := range snap {
		if opts.Only != nil && !opts.Only[l.Name] {
			continue
		}
		f := Finding{lint: uint16(i)}
		switch {
		case !l.CheckApplies(c):
			f.Status = NA
		case !opts.IgnoreEffectiveDates && !l.EffectiveDate.IsZero() && c.NotBefore.Before(l.EffectiveDate):
			f.Status = NE
		default:
			out := l.Run(c)
			if f.Status = out.Status; f.Status == Fail {
				res.failed++
				l.hits.Add(1)
			}
			if out.Details != "" {
				if len(*chunk) == start && cap(*chunk)-start < len(snap)-i {
					*chunk, start = make([]detail, 0, max(1024, len(snap))), 0
				}
				*chunk = append(*chunk, detail{lint: f.lint, text: out.Details})
			}
		}
		res.Findings = append(res.Findings, f)
	}
	if end := len(*chunk); start < end {
		res.details = (*chunk)[start:end:end]
	}
	detailChunks.Put(chunk)
	return res
}
