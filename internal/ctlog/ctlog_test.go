package ctlog

import (
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/raceflag"
	"repro/internal/x509cert"
)

func TestEmptyTreeRoot(t *testing.T) {
	var tree Tree
	root, err := tree.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	// SHA-256 of empty string.
	want := "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	got := ""
	for _, b := range root {
		got += string("0123456789abcdef"[b>>4]) + string("0123456789abcdef"[b&0xF])
	}
	if got != want {
		t.Fatalf("empty root %s", got)
	}
}

func TestInclusionProofs(t *testing.T) {
	var tree Tree
	for i := 0; i < 13; i++ {
		tree.Append(LeafHash([]byte{byte(i)}))
	}
	for n := 1; n <= 13; n++ {
		root, err := tree.Root(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			proof, err := tree.InclusionProof(i, n)
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyInclusion(LeafHash([]byte{byte(i)}), i, n, proof, root) {
				t.Fatalf("inclusion %d/%d fails", i, n)
			}
			// A wrong leaf must not verify.
			if VerifyInclusion(LeafHash([]byte{0xFF}), i, n, proof, root) && n > 1 {
				t.Fatalf("forged leaf verified at %d/%d", i, n)
			}
		}
	}
}

func TestConsistencyProofs(t *testing.T) {
	var tree Tree
	for i := 0; i < 17; i++ {
		tree.Append(LeafHash([]byte{byte(i)}))
	}
	for m := 1; m <= 17; m++ {
		for n := m; n <= 17; n++ {
			oldRoot, _ := tree.Root(m)
			newRoot, _ := tree.Root(n)
			proof, err := tree.ConsistencyProof(m, n)
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyConsistency(m, n, oldRoot, newRoot, proof) {
				t.Fatalf("consistency %d->%d fails (proof len %d)", m, n, len(proof))
			}
		}
	}
}

func TestConsistencyRejectsForgedRoot(t *testing.T) {
	var tree Tree
	for i := 0; i < 8; i++ {
		tree.Append(LeafHash([]byte{byte(i)}))
	}
	oldRoot, _ := tree.Root(4)
	newRoot, _ := tree.Root(8)
	proof, _ := tree.ConsistencyProof(4, 8)
	forged := oldRoot
	forged[0] ^= 1
	if VerifyConsistency(4, 8, forged, newRoot, proof) {
		t.Fatal("forged old root verified")
	}
}

func TestInclusionProofProperty(t *testing.T) {
	var tree Tree
	for i := 0; i < 64; i++ {
		tree.Append(LeafHash([]byte{byte(i), byte(i >> 4)}))
	}
	f := func(iRaw, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		i := int(iRaw) % n
		root, err := tree.Root(n)
		if err != nil {
			return false
		}
		proof, err := tree.InclusionProof(i, n)
		if err != nil {
			return false
		}
		return VerifyInclusion(LeafHash([]byte{byte(i), byte(i >> 4)}), i, n, proof, root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHashingAllocFree pins the hashing and verification hot paths the
// audited crawl runs per entry and per proof node at zero allocations.
func TestHashingAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	der := buildTestCert(t, false)
	var tree Tree
	for i := 0; i < 100; i++ {
		tree.Append(LeafHash([]byte{byte(i)}))
	}
	leaf := LeafHash([]byte{37})
	root, _ := tree.Root(100)
	incl, _ := tree.InclusionProof(37, 100)
	oldRoot, _ := tree.Root(64) // a power of two: the old root starts the path
	cons, _ := tree.ConsistencyProof(64, 100)
	raggedRoot, _ := tree.Root(50)
	ragged, _ := tree.ConsistencyProof(50, 100)
	var sink Hash
	for name, f := range map[string]func(){
		"nodeHash": func() { sink = nodeHash(root, leaf) },
		"LeafHash": func() { sink = LeafHash(der) },
		"VerifyInclusion": func() {
			if !VerifyInclusion(leaf, 37, 100, incl, root) {
				t.Fatal("inclusion proof rejected")
			}
		},
		"VerifyConsistency": func() {
			if !VerifyConsistency(64, 100, oldRoot, root, cons) || !VerifyConsistency(50, 100, raggedRoot, root, ragged) {
				t.Fatal("consistency proof rejected")
			}
		},
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
	_ = sink
}

func buildTestCert(t *testing.T, poison bool) []byte {
	t.Helper()
	key, err := x509cert.GenerateKey(77)
	if err != nil {
		t.Fatal(err)
	}
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(5),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Log CA")),
		Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "entry.test")),
		NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN:          []x509cert.GeneralName{x509cert.DNSName("entry.test")},
		CTPoison:     poison,
	}
	der, err := x509cert.Build(tpl, key, key)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

func TestLogAddAndQuery(t *testing.T) {
	log, err := NewLog(3)
	if err != nil {
		t.Fatal(err)
	}
	fixed := time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC)
	log.SetClock(func() time.Time { return fixed })

	regular := buildTestCert(t, false)
	precert := buildTestCert(t, true)
	sct, err := log.Add(regular)
	if err != nil {
		t.Fatal(err)
	}
	if sct.LogID != log.ID() || !sct.Timestamp.Equal(fixed) {
		t.Fatal("SCT metadata wrong")
	}
	if _, err := log.Add(precert); err != nil {
		t.Fatal(err)
	}
	if log.Size() != 2 {
		t.Fatalf("size %d", log.Size())
	}
	entries, err := log.GetEntries(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Precert || !entries[1].Precert {
		t.Fatal("precert flags wrong")
	}
	// The §4.1 filter keeps only the regular certificate.
	regulars := log.RegularCertificates()
	if len(regulars) != 1 || regulars[0].Index != 0 {
		t.Fatalf("regulars %v", regulars)
	}
}

// distinctCerts builds n leaf certificates that differ only in serial.
func distinctCerts(t *testing.T, n int) [][]byte {
	t.Helper()
	key, err := x509cert.GenerateKey(78)
	if err != nil {
		t.Fatal(err)
	}
	ders := make([][]byte, n)
	for i := range ders {
		tpl := &x509cert.Template{
			SerialNumber: big.NewInt(int64(100 + i)),
			Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Log CA")),
			Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "entry.test")),
			NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
			SAN:          []x509cert.GeneralName{x509cert.DNSName("entry.test")},
		}
		if ders[i], err = x509cert.Build(tpl, key, key); err != nil {
			t.Fatal(err)
		}
	}
	return ders
}

// TestProveInclusionByHashFirstIndex pins the lookup semantics the
// get-proof-by-hash endpoint serves: a DER logged more than once
// proves at its first index, through both append paths, and a leaf
// first logged at or beyond the requested size is not found.
func TestProveInclusionByHashFirstIndex(t *testing.T) {
	log, err := NewLog(6)
	if err != nil {
		t.Fatal(err)
	}
	certs := distinctCerts(t, 2)
	a, b := certs[0], certs[1]
	if _, err := log.AddParsed(a, false); err != nil {
		t.Fatal(err)
	}
	if _, err := log.AddBatchParsed([][]byte{b, a, b}, []bool{false, false, false}); err != nil {
		t.Fatal(err)
	}
	if _, err := log.AddParsed(b, false); err != nil {
		t.Fatal(err)
	}
	sth, err := log.STH()
	if err != nil {
		t.Fatal(err)
	}
	for want, der := range [][]byte{a, b} {
		idx, proof, err := log.ProveInclusionByHash(LeafHash(der), sth.Size)
		if err != nil {
			t.Fatal(err)
		}
		if idx != want {
			t.Fatalf("duplicate DER proved at index %d, want its first index %d", idx, want)
		}
		if !VerifyInclusion(LeafHash(der), idx, sth.Size, proof, sth.Root) {
			t.Fatal("first-index proof does not verify")
		}
	}
	if _, _, err := log.ProveInclusionByHash(LeafHash(b), 1); err != ErrLeafNotFound {
		t.Fatalf("leaf first logged at 1 under size 1: %v, want ErrLeafNotFound", err)
	}
	if _, _, err := log.ProveInclusionByHash(Hash{}, sth.Size); err != ErrLeafNotFound {
		t.Fatalf("absent leaf: %v, want ErrLeafNotFound", err)
	}
	if _, _, err := log.ProveInclusionByHash(LeafHash(a), sth.Size+1); err == nil || err == ErrLeafNotFound {
		t.Fatalf("size beyond the log: %v, want a range error", err)
	}
}

func TestLogInclusionEndToEnd(t *testing.T) {
	log, err := NewLog(4)
	if err != nil {
		t.Fatal(err)
	}
	der := buildTestCert(t, false)
	for i := 0; i < 9; i++ {
		if _, err := log.Add(der); err != nil {
			t.Fatal(err)
		}
	}
	sth, err := log.STH()
	if err != nil {
		t.Fatal(err)
	}
	if sth.Size != 9 {
		t.Fatalf("STH size %d", sth.Size)
	}
	proof, err := log.ProveInclusion(4)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyInclusion(LeafHash(der), 4, 9, proof, sth.Root) {
		t.Fatal("inclusion proof fails against STH")
	}
	cons, err := log.ProveConsistency(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	oldRoot, _ := log.tree.Root(5)
	if !VerifyConsistency(5, 9, oldRoot, sth.Root, cons) {
		t.Fatal("consistency proof fails")
	}
}

func TestLogRejectsGarbage(t *testing.T) {
	log, err := NewLog(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Add([]byte{0x01, 0x02}); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := log.GetEntries(0, 5); err == nil {
		t.Fatal("out-of-range query must fail")
	}
}
