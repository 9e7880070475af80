package ctlog

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/x509cert"
)

// Entry is one logged certificate.
type Entry struct {
	Index     int
	Timestamp time.Time
	DER       []byte
	// Precert mirrors the CT poison extension: precertificates are
	// logged for validity verification but must not be deployed (§4.1).
	Precert bool
}

// SCT is a signed certificate timestamp.
type SCT struct {
	LogID     Hash
	Timestamp time.Time
	Signature []byte
}

// STH is a signed tree head.
type STH struct {
	Size      int
	Root      Hash
	Timestamp time.Time
	Signature []byte
}

// Log is an append-only CT log with an ECDSA signing key.
type Log struct {
	mu      sync.RWMutex
	id      Hash
	key     *x509cert.KeyPair
	tree    Tree
	entries []Entry
	// first maps each leaf hash to the lowest index it was logged at.
	first map[Hash]int
	now   func() time.Time
}

// ErrLeafNotFound reports a leaf hash that is not in the tree at the
// requested size.
var ErrLeafNotFound = errors.New("ctlog: leaf hash not found")

// NewLog creates a log whose key is derived from seed.
func NewLog(seed int64) (*Log, error) {
	key, err := x509cert.GenerateKey(seed)
	if err != nil {
		return nil, err
	}
	id := sha256.Sum256(key.PublicPoint())
	return &Log{id: id, key: key, first: make(map[Hash]int), now: time.Now}, nil
}

// SetClock overrides the log's time source (for reproducible corpora).
func (l *Log) SetClock(now func() time.Time) { l.now = now }

// ID returns the log identifier (hash of the log public key).
func (l *Log) ID() Hash { return l.id }

// Add appends a certificate (parsing it to detect the CT poison
// extension) and returns its SCT.
func (l *Log) Add(der []byte) (*SCT, error) {
	cert, err := x509cert.ParseWithMode(der, x509cert.ParseLenient)
	if err != nil {
		return nil, fmt.Errorf("ctlog: %v", err)
	}
	return l.addParsed(der, cert.IsPrecertificate())
}

// AddParsed appends a certificate whose precert status is already
// known, avoiding a re-parse in bulk pipelines.
func (l *Log) AddParsed(der []byte, precert bool) (*SCT, error) {
	return l.addParsed(der, precert)
}

func (l *Log) addParsed(der []byte, precert bool) (*SCT, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := l.now()
	e := Entry{Index: len(l.entries), Timestamp: ts, DER: append([]byte(nil), der...), Precert: precert}
	l.entries = append(l.entries, e)
	l.appendLeafLocked(LeafHash(der))
	sig, err := l.key.Sign(sctSignedData(l.id, ts, der))
	if err != nil {
		return nil, err
	}
	return &SCT{LogID: l.id, Timestamp: ts, Signature: sig}, nil
}

// appendLeafLocked adds a leaf to the tree and the first-index map;
// l.mu must be held for writing.
func (l *Log) appendLeafLocked(leaf Hash) {
	i := l.tree.Append(leaf)
	if _, ok := l.first[leaf]; !ok {
		l.first[leaf] = i
	}
}

func sctSignedData(id Hash, ts time.Time, der []byte) []byte {
	var buf []byte
	buf = append(buf, id[:]...)
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], uint64(ts.UnixMilli()))
	buf = append(buf, t[:]...)
	buf = append(buf, der...)
	return buf
}

// Size returns the number of entries.
func (l *Log) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// GetEntries returns entries [start, end).
func (l *Log) GetEntries(start, end int) ([]Entry, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if start < 0 || end > len(l.entries) || start > end {
		return nil, errors.New("ctlog: range out of bounds")
	}
	out := make([]Entry, end-start)
	copy(out, l.entries[start:end])
	return out, nil
}

// STH signs and returns the current tree head.
func (l *Log) STH() (*STH, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	root, err := l.tree.Root(len(l.entries))
	if err != nil {
		return nil, err
	}
	ts := l.now()
	var sizeBuf [8]byte
	binary.BigEndian.PutUint64(sizeBuf[:], uint64(len(l.entries)))
	sig, err := l.key.Sign(append(append(sizeBuf[:], root[:]...), l.id[:]...))
	if err != nil {
		return nil, err
	}
	return &STH{Size: len(l.entries), Root: root, Timestamp: ts, Signature: sig}, nil
}

// ProveInclusion returns the audit path for entry i under the current
// tree size.
func (l *Log) ProveInclusion(i int) ([]Hash, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tree.InclusionProof(i, len(l.entries))
}

// ProveInclusionByHash returns the lowest index at which leaf was
// logged and its audit path under tree size size. A leaf first logged
// at or beyond size is ErrLeafNotFound.
func (l *Log) ProveInclusionByHash(leaf Hash, size int) (int, []Hash, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i, ok := l.first[leaf]
	if !ok || i >= size {
		return 0, nil, ErrLeafNotFound
	}
	proof, err := l.tree.InclusionProof(i, size)
	return i, proof, err
}

// ProveConsistency returns the consistency proof between sizes m and n.
func (l *Log) ProveConsistency(m, n int) ([]Hash, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tree.ConsistencyProof(m, n)
}

// RegularCertificates returns the non-precertificate entries — the
// §4.1 precertificate filter (54.7% of real CT entries are dropped at
// this step).
func (l *Log) RegularCertificates() []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Entry
	for _, e := range l.entries {
		if !e.Precert {
			out = append(out, e)
		}
	}
	return out
}
