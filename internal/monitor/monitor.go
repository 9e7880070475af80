// Package monitor models the five public CT monitors the paper probes
// (§6.1, Table 6) — Crt.sh, SSLMate Spotter, Facebook Monitor, Entrust
// Search, and MerkleMap — as indexing/search pipelines over our CT log
// substrate, and implements the "misleading CT monitors" threat
// experiment: can a forged certificate be crafted so the domain owner's
// queries miss it?
package monitor

import (
	"strings"
	"sync/atomic"

	"repro/internal/idna"
	"repro/internal/punycode"
	"repro/internal/uni"
	"repro/internal/x509cert"
)

// Capabilities is a row of Table 6.
type Capabilities struct {
	Name string
	// QuerySubjectAttrs: monitors that index O/OU/emailAddress in
	// addition to CN+SAN (Crt.sh only).
	QuerySubjectAttrs bool
	CaseSensitive     bool
	UnicodeSearch     bool
	FuzzySearch       bool
	ULabelCheck       bool
	PunycodeIDN       bool
	PunycodeIDNccTLD  bool
	// FailsOnSpecialUnicode: fields containing special Unicode are
	// mis-indexed or dropped (P1.4).
	FailsOnSpecialUnicode bool
	// Discontinued marks Entrust's retired service.
	Discontinued bool
}

// Monitors returns the five Table 6 profiles.
func Monitors() []Capabilities {
	return []Capabilities{
		{Name: "Crt.sh", QuerySubjectAttrs: true, FuzzySearch: true, PunycodeIDN: true, PunycodeIDNccTLD: true},
		{Name: "SSLMate Spotter", ULabelCheck: true, PunycodeIDN: true, PunycodeIDNccTLD: true, FailsOnSpecialUnicode: true},
		{Name: "Facebook Monitor", ULabelCheck: true, PunycodeIDN: true, PunycodeIDNccTLD: true},
		{Name: "Entrust Search", PunycodeIDN: true, Discontinued: true},
		{Name: "MerkleMap", FuzzySearch: true, PunycodeIDN: true, PunycodeIDNccTLD: true},
	}
}

// Monitor is one instantiated monitor with its index.
type Monitor struct {
	Caps  Capabilities
	index map[string][]int // normalized key → certificate ids
	count int
	// nextIndex is the crawl checkpoint: the next log entry index
	// SyncFromLog will fetch (see sync.go).
	nextIndex int
	// lastAdvance is the unix-nano time the checkpoint last moved;
	// atomic because the checkpoint-age gauge reads it from the scrape
	// goroutine while a crawl runs.
	lastAdvance atomic.Int64
	// audit is the Merkle audit state (verified mirror of the log's
	// tree); nil until a crawl runs with SyncOptions.Audit (see
	// audit.go).
	audit *auditor
}

// New builds an empty monitor with the given capabilities.
func New(caps Capabilities) *Monitor {
	return &Monitor{Caps: caps, index: make(map[string][]int)}
}

// normalizeKey lowercases for the (universal, P1.1) case-insensitive
// behaviour.
func (m *Monitor) normalizeKey(s string) string { return strings.ToLower(s) }

// indexable reports whether the monitor can index a field value; the
// P1.4 failure mode drops or truncates values with special characters.
func (m *Monitor) indexable(v string) (string, bool) {
	if !m.Caps.FailsOnSpecialUnicode {
		return v, true
	}
	// SSLMate-style behaviour: a CN containing a space is ignored
	// entirely; only the substring before '/' is matched.
	if strings.ContainsAny(v, " ") && !strings.Contains(v, ".") {
		return "", false
	}
	if i := strings.IndexByte(v, '/'); i >= 0 {
		v = v[:i]
	}
	for _, r := range v {
		if uni.IsControl(r) {
			return "", false
		}
	}
	return v, true
}

// Index ingests one certificate (by id) into the monitor.
func (m *Monitor) Index(id int, c *x509cert.Certificate) {
	m.count++
	add := func(v string) {
		if v == "" {
			return
		}
		if vv, ok := m.indexable(v); ok {
			key := m.normalizeKey(vv)
			m.index[key] = append(m.index[key], id)
		}
	}
	add(c.CommonName())
	for _, n := range c.DNSNames() {
		add(n)
	}
	if m.Caps.QuerySubjectAttrs {
		add(c.SubjectFirst(x509cert.OIDOrganizationName))
		add(c.SubjectFirst(x509cert.OIDOrganizationalUnit))
		add(c.SubjectFirst(x509cert.OIDEmailAddress))
	}
}

// Keys returns the index keys in no order; the verdict golden digests them.
func (m *Monitor) Keys() []string {
	keys := make([]string, 0, len(m.index))
	for k := range m.index {
		keys = append(keys, k)
	}
	return keys
}

// QueryResult reports one search outcome.
type QueryResult struct {
	IDs     []int
	Refused bool   // the monitor rejected the query input
	Reason  string // why it was refused
}

// Query searches the index, modeling each monitor's input handling.
func (m *Monitor) Query(q string) QueryResult {
	if m.Caps.Discontinued {
		return QueryResult{Refused: true, Reason: "service discontinued"}
	}
	// Unicode query inputs: none of the monitors support them (Table 6
	// "Unicode search ×"); U-label queries must be converted by the
	// user unless the monitor converts internally via Punycode support.
	if !isASCII(q) {
		if !m.Caps.PunycodeIDN {
			return QueryResult{Refused: true, Reason: "non-ASCII query unsupported"}
		}
		a, err := idna.ToASCII(q)
		if err != nil {
			return QueryResult{Refused: true, Reason: "unconvertible query"}
		}
		q = a
	}
	// IDN ccTLD support: Entrust-style monitors cannot handle queries
	// under internationalized country-code TLDs at all (Table 6).
	if !m.Caps.PunycodeIDNccTLD && idna.IsIDNccTLD(q) {
		return QueryResult{Refused: true, Reason: "IDN ccTLD unsupported"}
	}
	// U-label legality check (P1.3): monitors with the check refuse
	// deceptive labels; those without accept them.
	if m.Caps.ULabelCheck {
		for _, label := range strings.Split(strings.ToLower(q), ".") {
			if strings.HasPrefix(label, punycode.ACEPrefix) {
				if err := idna.ValidateALabel(label); err != nil {
					return QueryResult{Refused: true, Reason: "illegal IDN: " + err.Error()}
				}
			}
		}
	}
	key := m.normalizeKey(q)
	if m.Caps.CaseSensitive {
		key = q
	}
	if ids, ok := m.index[key]; ok {
		return QueryResult{IDs: dedupe(ids)}
	}
	if m.Caps.FuzzySearch {
		var out []int
		for k, ids := range m.index {
			if strings.Contains(k, key) {
				out = append(out, ids...)
			}
		}
		return QueryResult{IDs: dedupe(out)}
	}
	return QueryResult{}
}

func dedupe(ids []int) []int {
	seen := make(map[int]bool, len(ids))
	var out []int
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// MisleadResult is the outcome of the §6.1 threat experiment for one
// monitor: whether the owner's natural queries surface the forged
// certificate.
type MisleadResult struct {
	Monitor   string
	Concealed bool
	Detail    string
}

// MisleadExperiment indexes a forged certificate targeting victimDomain
// into each monitor, then runs the owner's queries (the domain and its
// CN) and reports which monitors fail to surface the forgery.
func MisleadExperiment(forged *x509cert.Certificate, victimDomain string) []MisleadResult {
	var out []MisleadResult
	for _, caps := range Monitors() {
		m := New(caps)
		m.Index(1, forged)
		if caps.Discontinued {
			out = append(out, MisleadResult{Monitor: caps.Name, Concealed: true, Detail: "service discontinued"})
			continue
		}
		res := m.Query(victimDomain)
		if len(res.IDs) == 0 {
			detail := "owner query returns nothing"
			if res.Refused {
				detail = "owner query refused: " + res.Reason
			}
			out = append(out, MisleadResult{Monitor: caps.Name, Concealed: true, Detail: detail})
			continue
		}
		out = append(out, MisleadResult{Monitor: caps.Name, Concealed: false, Detail: "forgery surfaced"})
	}
	return out
}
