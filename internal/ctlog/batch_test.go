package ctlog

import (
	"bytes"
	"testing"
)

// TestAddBatchParsedMatchesPerEntry verifies the batched write path
// grows exactly the same tree as per-entry ingestion: same entries,
// same STH root, and a seal whose subtree root verifies.
func TestAddBatchParsedMatchesPerEntry(t *testing.T) {
	der := buildTestCert(t, false)
	pre := buildTestCert(t, true)
	ders := [][]byte{der, pre, der, der, pre}
	precerts := []bool{false, true, false, false, true}

	perEntry, err := NewLog(7)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ders {
		if _, err := perEntry.AddParsed(d, precerts[i]); err != nil {
			t.Fatal(err)
		}
	}
	batched, err := NewLog(7)
	if err != nil {
		t.Fatal(err)
	}
	seal, err := batched.AddBatchParsed(ders, precerts)
	if err != nil {
		t.Fatal(err)
	}

	sth1, err := perEntry.STH()
	if err != nil {
		t.Fatal(err)
	}
	sth2, err := batched.STH()
	if err != nil {
		t.Fatal(err)
	}
	if sth1.Size != sth2.Size || sth1.Root != sth2.Root {
		t.Fatalf("batched tree diverges: per-entry (%d, %x), batched (%d, %x)",
			sth1.Size, sth1.Root[:4], sth2.Size, sth2.Root[:4])
	}

	if seal.First != 0 || seal.Count != len(ders) {
		t.Fatalf("seal range [%d,+%d), want [0,+%d)", seal.First, seal.Count, len(ders))
	}
	if len(seal.Signature) == 0 {
		t.Fatal("seal is unsigned")
	}
	leaves := make([]Hash, len(ders))
	for i, d := range ders {
		leaves[i] = LeafHash(d)
	}
	if seal.Root != naiveRoot(leaves) {
		t.Fatal("seal root is not the batch subtree root")
	}
	if err := batched.VerifySeal(seal); err != nil {
		t.Fatalf("VerifySeal: %v", err)
	}

	// Entries survive the batch path intact.
	entries, err := batched.GetEntries(0, len(ders))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if !bytes.Equal(e.DER, ders[i]) || e.Precert != precerts[i] || e.Index != i {
			t.Fatalf("entry %d mangled by the batch path", i)
		}
	}
}

func TestAddBatchParsedRejectsBadShapes(t *testing.T) {
	log, err := NewLog(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.AddBatchParsed(nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	der := buildTestCert(t, false)
	if _, err := log.AddBatchParsed([][]byte{der, der}, []bool{false}); err == nil {
		t.Error("mismatched precert vector accepted")
	}
}

func TestVerifySealRejectsTampering(t *testing.T) {
	log, err := NewLog(7)
	if err != nil {
		t.Fatal(err)
	}
	der := buildTestCert(t, false)
	seal, err := log.AddBatchParsed([][]byte{der, der, der, der}, make([]bool, 4))
	if err != nil {
		t.Fatal(err)
	}
	bad := *seal
	bad.Root[0] ^= 0xff
	if err := log.VerifySeal(&bad); err == nil {
		t.Error("tampered seal root accepted")
	}
	short := *seal
	short.Count--
	if err := log.VerifySeal(&short); err == nil {
		t.Error("seal over a shrunken range accepted")
	}
	unsigned := *seal
	unsigned.Signature = nil
	if err := log.VerifySeal(&unsigned); err == nil {
		t.Error("unsigned seal accepted")
	}
}

// TestBatcherSealsPowerOfTwoSubtrees drives a Batcher past its
// threshold: the threshold rounds down to a power of two, a full batch
// seals exactly at the boundary, and Flush seals the ragged remainder.
func TestBatcherSealsPowerOfTwoSubtrees(t *testing.T) {
	log, err := NewLog(7)
	if err != nil {
		t.Fatal(err)
	}
	var sealed []*BatchSeal
	b := &Batcher{Log: log, BatchSize: 5, OnSeal: func(s *BatchSeal) { sealed = append(sealed, s) }}
	if got := b.threshold(); got != 4 {
		t.Fatalf("threshold(5) = %d, want 4 (rounded down to a power of two)", got)
	}
	der := buildTestCert(t, false)
	for i := 0; i < 3; i++ {
		seal, err := b.AddParsed(der, false)
		if err != nil {
			t.Fatal(err)
		}
		if seal != nil {
			t.Fatalf("premature seal after %d entries", i+1)
		}
	}
	if b.Pending() != 3 {
		t.Fatalf("pending %d, want 3", b.Pending())
	}
	seal, err := b.AddParsed(der, false)
	if err != nil {
		t.Fatal(err)
	}
	if seal == nil || seal.Count != 4 || seal.First != 0 {
		t.Fatalf("4th entry should seal [0,+4), got %+v", seal)
	}
	if b.Pending() != 0 {
		t.Fatalf("pending %d after seal, want 0", b.Pending())
	}

	// A ragged remainder seals on Flush, and an empty queue is a no-op.
	if _, err := b.AddParsed(der, false); err != nil {
		t.Fatal(err)
	}
	fseal, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if fseal == nil || fseal.Count != 1 || fseal.First != 4 {
		t.Fatalf("flush should seal [4,+1), got %+v", fseal)
	}
	if again, err := b.Flush(); err != nil || again != nil {
		t.Fatalf("empty flush: %v, %+v", err, again)
	}

	if len(sealed) != 2 {
		t.Fatalf("OnSeal observed %d seals, want 2", len(sealed))
	}
	for _, s := range sealed {
		if err := log.VerifySeal(s); err != nil {
			t.Errorf("sealed batch [%d,+%d) does not verify: %v", s.First, s.Count, err)
		}
	}
}

// TestBatcherAddParses exercises the parsing front door: a precert is
// detected, garbage is rejected before it can enter a batch.
func TestBatcherAddParses(t *testing.T) {
	log, err := NewLog(7)
	if err != nil {
		t.Fatal(err)
	}
	b := &Batcher{Log: log, BatchSize: 1}
	seal, err := b.Add(buildTestCert(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if seal == nil || seal.Count != 1 {
		t.Fatalf("BatchSize 1 should seal immediately, got %+v", seal)
	}
	entries, err := log.GetEntries(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !entries[0].Precert {
		t.Error("precert flag lost through Batcher.Add")
	}
	if _, err := b.Add([]byte("not a certificate")); err == nil {
		t.Error("garbage DER accepted")
	}
}
