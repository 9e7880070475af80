package ctlog

// Merkle-batched add-chain ingestion. The per-entry write path signs
// one SCT per certificate — an ECDSA operation per entry that
// dominates bulk ingestion. AddBatchParsed appends a whole batch
// under one lock acquisition and seals it with a single signature
// over the batch's own Merkle subtree root, and Batcher accumulates
// submissions into power-of-two subtrees so every seal covers a
// complete, alignable subtree. `go test -bench Write ./internal/ctlog`
// runs the baseline / per-entry / batched write-throughput grid.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/x509cert"
)

// BatchSeal covers one sealed write batch: Count entries appended at
// First, authenticated by one signature over the batch subtree root
// instead of one SCT per entry.
type BatchSeal struct {
	LogID Hash
	// First is the log index of the batch's first entry; Count is how
	// many entries the seal covers.
	First int
	Count int
	// Root is the RFC 6962 Merkle root over the batch's leaves alone
	// (the subtree the batch would occupy if it started a tree).
	Root      Hash
	Timestamp int64 // UnixMilli of the seal
	Signature []byte
}

// AddBatchParsed appends a batch of certificates whose precert status
// is already known, taking the log lock once and signing once over
// the batch subtree root. It returns the seal; individual entries
// carry no per-entry SCT.
func (l *Log) AddBatchParsed(ders [][]byte, precerts []bool) (*BatchSeal, error) {
	if len(ders) == 0 {
		return nil, errors.New("ctlog: empty batch")
	}
	if len(precerts) != len(ders) {
		return nil, errors.New("ctlog: precert vector does not match batch")
	}
	leaves := make([]Hash, len(ders))
	var batch CompactTree
	for i, der := range ders {
		leaves[i] = LeafHash(der)
		batch.Append(leaves[i])
	}
	root := batch.Root()
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := l.now()
	first := len(l.entries)
	for i, der := range ders {
		e := Entry{Index: first + i, Timestamp: ts, DER: append([]byte(nil), der...), Precert: precerts[i]}
		l.entries = append(l.entries, e)
		l.appendLeafLocked(leaves[i])
	}
	seal := &BatchSeal{LogID: l.id, First: first, Count: len(ders), Root: root, Timestamp: ts.UnixMilli()}
	sig, err := l.key.Sign(sealSignedData(seal))
	if err != nil {
		return nil, err
	}
	seal.Signature = sig
	return seal, nil
}

func sealSignedData(s *BatchSeal) []byte {
	buf := make([]byte, 0, len(s.LogID)+8*3+len(s.Root))
	buf = append(buf, s.LogID[:]...)
	var w [8]byte
	binary.BigEndian.PutUint64(w[:], uint64(s.First))
	buf = append(buf, w[:]...)
	binary.BigEndian.PutUint64(w[:], uint64(s.Count))
	buf = append(buf, w[:]...)
	binary.BigEndian.PutUint64(w[:], uint64(s.Timestamp))
	buf = append(buf, w[:]...)
	buf = append(buf, s.Root[:]...)
	return buf
}

// VerifySeal recomputes the batch subtree root from the sealed range
// and checks it (and the signed payload shape) against the seal. It
// is the read-side counterpart bulk importers use before trusting a
// sealed batch.
func (l *Log) VerifySeal(s *BatchSeal) error {
	entries, err := l.GetEntries(s.First, s.First+s.Count)
	if err != nil {
		return fmt.Errorf("ctlog: seal range: %w", err)
	}
	var batch CompactTree
	for _, e := range entries {
		batch.Append(LeafHash(e.DER))
	}
	if batch.Root() != s.Root {
		return errors.New("ctlog: seal root does not match sealed entries")
	}
	if len(s.Signature) == 0 {
		return errors.New("ctlog: seal is unsigned")
	}
	return nil
}

// DefaultBatchSize is the Batcher seal threshold when BatchSize is
// zero: a complete 256-leaf subtree, matching the get-entries cap.
const DefaultBatchSize = 256

// Batcher accumulates add-chain submissions and seals them into a Log
// as power-of-two Merkle subtrees. Safe for concurrent use; Flush
// seals any ragged remainder (for shutdown or bench drains).
type Batcher struct {
	Log *Log
	// BatchSize is the seal threshold; values that are not powers of
	// two are rounded down so every full seal is a complete subtree.
	// Zero means DefaultBatchSize.
	BatchSize int
	// OnSeal, when non-nil, observes every sealed batch.
	OnSeal func(*BatchSeal)

	mu   sync.Mutex
	ders [][]byte
	pre  []bool
}

func (b *Batcher) threshold() int {
	n := b.BatchSize
	if n <= 0 {
		n = DefaultBatchSize
	}
	// Round down to a power of two so sealed batches are complete
	// subtrees.
	for n&(n-1) != 0 {
		n &= n - 1
	}
	return n
}

// Add parses a certificate (for the CT poison extension) and queues
// it, sealing a batch when the power-of-two threshold fills.
func (b *Batcher) Add(der []byte) (*BatchSeal, error) {
	cert, err := x509cert.ParseWithMode(der, x509cert.ParseLenient)
	if err != nil {
		return nil, fmt.Errorf("ctlog: %v", err)
	}
	return b.AddParsed(der, cert.IsPrecertificate())
}

// AddParsed queues a certificate whose precert status is already
// known. It returns the seal when this submission completed a batch,
// nil otherwise.
func (b *Batcher) AddParsed(der []byte, precert bool) (*BatchSeal, error) {
	b.mu.Lock()
	b.ders = append(b.ders, append([]byte(nil), der...))
	b.pre = append(b.pre, precert)
	if len(b.ders) < b.threshold() {
		b.mu.Unlock()
		return nil, nil
	}
	return b.sealLocked()
}

// Flush seals whatever is queued, returning nil when the queue is
// empty.
func (b *Batcher) Flush() (*BatchSeal, error) {
	b.mu.Lock()
	if len(b.ders) == 0 {
		b.mu.Unlock()
		return nil, nil
	}
	return b.sealLocked()
}

// Pending returns how many submissions await the next seal.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ders)
}

// sealLocked seals the queued batch; it takes ownership of the queue,
// releases b.mu before the (slow) signature, and must be entered with
// b.mu held.
func (b *Batcher) sealLocked() (*BatchSeal, error) {
	ders, pre := b.ders, b.pre
	b.ders, b.pre = nil, nil
	b.mu.Unlock()
	seal, err := b.Log.AddBatchParsed(ders, pre)
	if err != nil {
		return nil, err
	}
	if b.OnSeal != nil {
		b.OnSeal(seal)
	}
	return seal, nil
}
