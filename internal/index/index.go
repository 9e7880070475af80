// Package index is the queryable certificate store that turns the
// fleet monitor from an aggregator into the thing the paper's "CT
// monitor misleading" threat actually targets: a monitor that SERVES
// lookups. Every entry the fleet syncs is indexed under four key
// spaces — exact domain, confusable skeleton (uni.Skeleton, the TR#39
// approximation the homograph lints use), issuer DN, and notBefore
// time — so the crt.sh-style queries the paper's §6.1 consumers issue
// (point, prefix, date range, and the homograph "?skeleton=" cluster
// query) are all one ordered-key scan.
//
// The store is an embedded LSM (a sorted memtable + immutable
// CRC-sealed segment files with per-segment bloom filters and
// size-tiered background compaction) that persists across restarts.
// The package's tests carry an in-memory B+tree that answers the same
// Index interface: it is the differential-testing oracle — the fuzz
// harness asserts both return byte-identical results for every query —
// and the baseline of the T1–T5 benchmark grid.
//
// The store is append-only by design: postings are never updated or
// deleted (a CT log never un-logs a certificate), which removes the
// LSM's tombstone/newest-wins machinery entirely and makes compaction
// a pure k-way merge. Full-key duplicates are collapsed at read and
// merge time, so a crash between a compaction's rename and its input
// unlinks (which can leave the same posting in two segments) is
// harmless rather than double-counted.
package index

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"repro/internal/uni"
	"repro/internal/x509cert"
)

// Key spaces. Every posting key is
//
//	<space> 0x00 <primary bytes> 0x00 <seq uint64 BE>
//
// with the primary empty for the cert space. Domains, skeletons and
// issuer strings cannot contain NUL (they come from decoded
// certificate strings; an embedded NUL is rejected at Put), so the
// 0x00 separators make the encoding prefix-free: an exact-match scan
// of "d\x00example.com\x00" can never swallow "example.com.evil".
const (
	spaceCert     = 'c' // one posting per Put: the cert count & iteration space
	spaceDomain   = 'd' // one posting per (domain, cert)
	spaceSkeleton = 's' // one posting per (uni.Skeleton(domain), cert)
	spaceIssuer   = 'i' // one posting per cert, keyed by issuer DN text
	spaceTime     = 't' // one posting per cert, keyed by notBefore seconds BE
)

// Record is one indexed posting's payload: the denormalized certificate
// metadata plus its cross-log provenance (which log the fleet first saw
// it on, and where). A certificate with N names produces N domain and
// N skeleton postings that all carry the same LeafHash and Seq.
type Record struct {
	// Domain is the subject name this posting indexes (one DNS SAN, or
	// the subject CN fallback), lowercased.
	Domain string `json:"domain"`
	// Skeleton is uni.Skeleton(Domain) — the confusable-normalized form
	// homograph queries cluster by.
	Skeleton string `json:"skeleton"`
	// Issuer is the issuer DN rendered as text.
	Issuer string `json:"issuer"`
	// NotBefore is the certificate validity start (second precision —
	// the index key truncates to seconds, and the stored value matches
	// the key so reopen round-trips exactly).
	NotBefore time.Time `json:"not_before"`
	// Log and LogIndex are the provenance: the fleet log this
	// certificate was first seen on, and its entry index there.
	Log      string `json:"log"`
	LogIndex uint64 `json:"log_index"`
	// LeafHash is the RFC 6962 leaf hash — the fleet's cross-log dedup
	// identity, so consumers can correlate postings back to log proofs.
	LeafHash [32]byte `json:"-"`
	// Seq is the index-assigned insertion sequence number; it makes
	// every posting key unique and orders equal-key postings by arrival.
	Seq uint64 `json:"seq"`
}

// Class is a query's shape; it is the label value of the per-class
// query metrics and the dispatch switch in Lookup.
type Class int

// Query classes, the T1–T3 grid axes plus the paper-specific ones.
const (
	// Point is an exact-domain lookup (T1).
	Point Class = iota
	// Prefix is a domain-prefix scan (T2).
	Prefix
	// Range is a notBefore date-range scan (T3).
	Range
	// Homograph is the "?skeleton=" cluster query: all certificates
	// whose confusable skeleton equals the skeleton of the probe.
	Homograph
	// Issuer is an exact issuer-DN lookup.
	Issuer
)

// String names the class for metrics labels and journal events.
func (c Class) String() string {
	switch c {
	case Point:
		return "point"
	case Prefix:
		return "prefix"
	case Range:
		return "range"
	case Homograph:
		return "homograph"
	case Issuer:
		return "issuer"
	default:
		return "unknown"
	}
}

// DefaultLimit bounds a query that does not set its own limit: a
// monitor serving millions of users must never let one range query
// drag the whole store through the response.
const DefaultLimit = 1000

// Query is one lookup. Build queries with the constructors below; a
// zero Query is a Point lookup of the empty domain, which matches
// nothing.
type Query struct {
	Class Class
	// Key is the scan primary: the exact domain (Point), the domain
	// prefix (Prefix), the skeletonized probe (Homograph), or the
	// issuer DN text (Issuer). Unused for Range.
	Key string
	// From/To bound Range queries (inclusive, second precision).
	From, To time.Time
	// Limit caps returned records (0 means DefaultLimit).
	Limit int
}

// PointQuery matches certificates whose indexed domain equals domain
// exactly (case-insensitively — the index lowercases at ingest).
func PointQuery(domain string) Query {
	return Query{Class: Point, Key: strings.ToLower(domain)}
}

// PrefixQuery matches certificates whose indexed domain starts with
// prefix.
func PrefixQuery(prefix string) Query {
	return Query{Class: Prefix, Key: strings.ToLower(prefix)}
}

// RangeQuery matches certificates with from <= notBefore <= to.
func RangeQuery(from, to time.Time) Query {
	return Query{Class: Range, From: from, To: to}
}

// HomographQuery matches every certificate whose domain's confusable
// skeleton equals the skeleton of probe — so querying either
// "paypal.com" or a Cyrillic spoof of it returns the whole homograph
// cluster. This is the paper's Table 3 attack surface as a lookup.
func HomographQuery(probe string) Query {
	return Query{Class: Homograph, Key: uni.Skeleton(probe)}
}

// IssuerQuery matches certificates by exact issuer DN text.
func IssuerQuery(issuer string) Query {
	return Query{Class: Issuer, Key: issuer}
}

func (q Query) limit() int {
	if q.Limit > 0 {
		return q.Limit
	}
	return DefaultLimit
}

// Stats is a backend's self-report.
type Stats struct {
	Backend string `json:"backend"`
	// Certs counts Put calls represented in the store (memtable +
	// segments); it survives flush, compaction, and reopen exactly.
	Certs uint64 `json:"certs"`
	// Postings counts individual key entries across all spaces.
	Postings uint64 `json:"postings"`
	// MemPostings is the mutable-memtable share of Postings (LSM only).
	MemPostings int `json:"mem_postings"`
	// Segments is the immutable-segment count (LSM only).
	Segments int `json:"segments"`
	// Damaged lists segment files that failed validation at open and
	// were quarantined rather than loaded. A non-empty list means data
	// needs re-sync; it is reported, never silently dropped.
	Damaged []string `json:"damaged,omitempty"`
	// Flushes and Compactions count maintenance operations this
	// process performed.
	Flushes     uint64 `json:"flushes"`
	Compactions uint64 `json:"compactions"`
}

// Index is the store contract the LSM and the test B+tree implement.
type Index interface {
	// Put indexes one certificate's postings. The record's Seq is
	// assigned by the store; all other fields are the caller's.
	Put(Record) error
	// Lookup runs q and returns at most q.limit() records in key order
	// (domain order for Point/Prefix, skeleton order for Homograph,
	// time order for Range).
	Lookup(q Query) ([]Record, error)
	// LookupAppend is Lookup appending into dst — the zero-extra-
	// allocation read path the serving layer uses.
	LookupAppend(q Query, dst []Record) ([]Record, error)
	// Flush persists the mutable state (LSM: memtable → segment file;
	// B+tree: no-op).
	Flush() error
	// Compact merges immutable state (LSM: every segment → one,
	// whatever its tier, where background compaction merges only full
	// tiers; B+tree: no-op).
	Compact() error
	Stats() Stats
	Close() error
}

// store is the ordered-key scan surface the shared query evaluator
// runs against; it is the ONLY thing that differs between backends, so
// proving the two scans equivalent proves the whole query surface
// equivalent.
type store interface {
	// scan visits every posting with lo <= key < hi in ascending key
	// order, collapsing full-key duplicates, until fn returns false.
	scan(lo, hi []byte, fn func(key, val []byte) bool) error
	// scanExact is scan over one exact primary (space+key): backends
	// with per-segment bloom filters use it to skip segments that
	// cannot contain the primary.
	scanExact(prefix []byte, fn func(key, val []byte) bool) error
}

// appendPostingKey appends <space> 0x00 <primary> 0x00 <seq BE>.
func appendPostingKey(dst []byte, space byte, primary string, seq uint64) []byte {
	dst = append(dst, space, 0)
	dst = append(dst, primary...)
	dst = append(dst, 0)
	return binary.BigEndian.AppendUint64(dst, seq)
}

// exactPrefix is the scan prefix covering every seq of one primary.
func exactPrefix(space byte, primary []byte) []byte {
	k := make([]byte, 0, len(primary)+3)
	k = append(k, space, 0)
	k = append(k, primary...)
	return append(k, 0)
}

// upperBound returns the smallest key greater than every key starting
// with p: p with its last byte incremented, dropping trailing 0xff
// bytes first. A p of all-0xff has no upper bound; nil means +inf.
func upperBound(p []byte) []byte {
	hi := append([]byte(nil), p...)
	for i := len(hi) - 1; i >= 0; i-- {
		if hi[i] != 0xff {
			hi[i]++
			return hi[:i+1]
		}
	}
	return nil
}

// timeKey encodes notBefore for the time space: seconds shifted to
// unsigned so pre-1970 notBefore values (misissued certs have them)
// still sort correctly as big-endian bytes.
func timeKey(t time.Time) [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(t.Unix())+(1<<63))
	return b
}

// postings calls fn with each of the record's five posting keys, one
// per key space, built in scratch, which it returns for reuse (fn
// copies any key it keeps). The cert posting carries the record too,
// so counting and full iteration need no join. A record string holding
// a NUL byte is rejected before fn sees any key.
func postings(rec *Record, scratch []byte, fn func(key []byte)) ([]byte, error) {
	for _, s := range [...]string{rec.Domain, rec.Skeleton, rec.Issuer, rec.Log} {
		if strings.IndexByte(s, 0) >= 0 {
			return scratch, fmt.Errorf("index: NUL byte in record string %q", s)
		}
	}
	tk := timeKey(rec.NotBefore)
	for _, k := range [...]struct {
		space   byte
		primary string
	}{{spaceCert, ""}, {spaceDomain, rec.Domain}, {spaceSkeleton, rec.Skeleton}, {spaceIssuer, rec.Issuer}, {spaceTime, string(tk[:])}} {
		scratch = appendPostingKey(scratch[:0], k.space, k.primary, rec.Seq)
		fn(scratch)
	}
	return scratch, nil
}

// evalLookup is the shared query evaluator: it picks the key-space
// window for q and decodes matching postings into dst. Both backends
// route Lookup here, so result semantics cannot diverge between them.
func evalLookup(s store, q Query, dst []Record) ([]Record, error) {
	limit := q.limit()
	n := 0
	var decErr error
	collect := func(key, val []byte) bool {
		if n >= limit {
			return false
		}
		var rec Record
		if err := decodeRecord(val, &rec); err != nil {
			// A posting that fails to decode is a store bug, not a user
			// error; stop the scan and surface it.
			decErr = err
			return false
		}
		dst = append(dst, rec)
		n++
		return n < limit
	}
	switch q.Class {
	case Point:
		if err := s.scanExact(exactPrefix(spaceDomain, []byte(q.Key)), collect); err != nil {
			return dst, err
		}
	case Prefix:
		lo := append([]byte{spaceDomain, 0}, q.Key...)
		if err := s.scan(lo, upperBound(lo), collect); err != nil {
			return dst, err
		}
	case Homograph:
		if err := s.scanExact(exactPrefix(spaceSkeleton, []byte(q.Key)), collect); err != nil {
			return dst, err
		}
	case Issuer:
		if err := s.scanExact(exactPrefix(spaceIssuer, []byte(q.Key)), collect); err != nil {
			return dst, err
		}
	case Range:
		if q.To.Before(q.From) {
			return dst, nil
		}
		from, to := timeKey(q.From), timeKey(q.To)
		lo := append([]byte{spaceTime, 0}, from[:]...)
		hi := upperBound(append([]byte{spaceTime, 0}, to[:]...))
		if err := s.scan(lo, hi, collect); err != nil {
			return dst, err
		}
	default:
		return dst, fmt.Errorf("index: unknown query class %d", q.Class)
	}
	return dst, decErr
}

// FromCert builds the records for one synced certificate: one per
// subject name (DNS SANs, falling back to the subject CN when there
// are none), all sharing the cert-level fields. The caller supplies
// provenance; Seq is left for the store.
func FromCert(log string, logIndex uint64, leafHash [32]byte, cert *x509cert.Certificate) []Record {
	names := cert.DNSNames()
	if len(names) == 0 {
		if cn := cert.CommonName(); cn != "" {
			names = []string{cn}
		} else {
			names = []string{""}
		}
	}
	issuer := cert.IssuerString()
	recs := make([]Record, 0, len(names))
	for _, name := range names {
		d := strings.ToLower(name)
		recs = append(recs, Record{
			Domain:    sanitizeNUL(d),
			Skeleton:  sanitizeNUL(uni.Skeleton(d)),
			Issuer:    sanitizeNUL(issuer),
			NotBefore: cert.NotBefore,
			Log:       log,
			LogIndex:  logIndex,
			LeafHash:  leafHash,
		})
	}
	return recs
}

// sanitizeNUL strips NUL bytes, which the key encoding reserves as
// separators. Hostile certificates CAN embed NULs in names (the
// classic CA/browser confusion attack); indexing the stripped form
// keeps the cert findable instead of rejected.
func sanitizeNUL(s string) string {
	if strings.IndexByte(s, 0) < 0 {
		return s
	}
	return strings.ReplaceAll(s, "\x00", "")
}
