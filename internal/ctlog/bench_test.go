package ctlog

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/big"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/x509cert"
)

// The T6 write-throughput grid, run with
// `go test -run '^$' -bench Write -benchmem ./internal/ctlog`:
//
//	BenchmarkWriteBaseline  Add: DER parse + one SCT signature per entry
//	BenchmarkWritePerEntry  AddParsed: pre-parsed, one SCT signature per entry
//	BenchmarkWriteBatched   Batcher at DefaultBatchSize: one seal
//	                        signature per 256-leaf subtree
//
// All three report certs/s so scripts/allocguard.sh derives per-cert
// costs from them; the spread between PerEntry and Batched is the
// price of the per-entry ECDSA operation that batch sealing amortizes
// away.
//
// BenchmarkGetEntries (`-bench GetEntries`) times the read side: a
// Client fetching 64-entry batches from a Server over loopback.
//
// BenchmarkTreeProofs (`-bench TreeProofs`) is the proof-path scaling
// check: Root, InclusionProof and ConsistencyProof at historical sizes
// 2¹⁰, 2¹⁴ and 2¹⁷ of one 2¹⁷-leaf tree, plus amortized Append.
// With the per-level subtree cache, ns/op should stay nearly flat
// across sizes and each proof costs one allocation (its slice).

const benchCorpusSize = 256

var (
	benchCorpusOnce sync.Once
	benchCorpusDERs [][]byte
)

// benchCorpus builds a deterministic set of distinct leaf
// certificates once, outside any timed region. One key signs all of
// them — the write path under test never touches the issuing key, so
// key diversity would only slow corpus construction.
func benchCorpus(b *testing.B) [][]byte {
	b.Helper()
	benchCorpusOnce.Do(func() {
		key, err := x509cert.GenerateKey(77)
		if err != nil {
			return
		}
		ders := make([][]byte, 0, benchCorpusSize)
		for i := 0; i < benchCorpusSize; i++ {
			host := "host" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + ".bench.test"
			tpl := &x509cert.Template{
				SerialNumber: big.NewInt(int64(1000 + i)),
				Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Bench CA")),
				Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, host)),
				NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
				NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
				SAN:          []x509cert.GeneralName{x509cert.DNSName(host)},
			}
			der, err := x509cert.Build(tpl, key, key)
			if err != nil {
				return
			}
			ders = append(ders, der)
		}
		benchCorpusDERs = ders
	})
	if len(benchCorpusDERs) != benchCorpusSize {
		b.Fatal("bench corpus construction failed")
	}
	return benchCorpusDERs
}

func benchLog(b *testing.B) *Log {
	b.Helper()
	log, err := NewLog(7)
	if err != nil {
		b.Fatal(err)
	}
	return log
}

func reportCertsPerSec(b *testing.B) {
	b.ReportMetric(float64(b.N)*1e9/float64(b.Elapsed().Nanoseconds()), "certs/s")
}

func BenchmarkWriteBaseline(b *testing.B) {
	ders := benchCorpus(b)
	log := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.Add(ders[i%len(ders)]); err != nil {
			b.Fatal(err)
		}
	}
	reportCertsPerSec(b)
}

func BenchmarkWritePerEntry(b *testing.B) {
	ders := benchCorpus(b)
	log := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.AddParsed(ders[i%len(ders)], false); err != nil {
			b.Fatal(err)
		}
	}
	reportCertsPerSec(b)
}

func BenchmarkWriteBatched(b *testing.B) {
	ders := benchCorpus(b)
	batcher := &Batcher{Log: benchLog(b)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := batcher.AddParsed(ders[i%len(ders)], false); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := batcher.Flush(); err != nil {
		b.Fatal(err)
	}
	reportCertsPerSec(b)
}

// BenchmarkGetEntries is the crawl's wire: one op is one 64-entry
// get-entries round trip of corpus DERs between a Client and a Server
// over loopback, both ends' encoding, decoding and allocations
// included.
func BenchmarkGetEntries(b *testing.B) {
	const batch = 64
	ders := benchCorpus(b)
	log := benchLog(b)
	for _, der := range ders {
		if _, err := log.AddParsed(der, false); err != nil {
			b.Fatal(err)
		}
	}
	srv := httptest.NewServer((&Server{Log: log}).Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := i * batch % len(ders)
		entries, err := cl.GetEntries(ctx, start, start+batch-1)
		if err != nil || len(entries) != batch {
			b.Fatalf("got %d entries, %v", len(entries), err)
		}
	}
	b.ReportMetric(float64(b.N*batch)*1e9/float64(b.Elapsed().Nanoseconds()), "certs/s")
}

func BenchmarkTreeProofs(b *testing.B) {
	const maxN = 1 << 17
	leaf := func(i int) Hash {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		return LeafHash(buf[:])
	}
	tree := &Tree{}
	for i := 0; i < maxN; i++ {
		tree.Append(leaf(i))
	}
	var sink []Hash
	for _, n := range []int{1 << 10, 1 << 14, maxN} {
		b.Run(fmt.Sprintf("Root/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Root(n - i%2); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("InclusionProof/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := tree.InclusionProof(i*7919%n, n)
				if err != nil {
					b.Fatal(err)
				}
				sink = p
			}
		})
		// Old sizes step through the upper half in 64-leaf batches, as
		// an auditing crawl's batch-end → STH proofs do.
		b.Run(fmt.Sprintf("ConsistencyProof/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := tree.ConsistencyProof(n/2+64*(i%(n/128)), n)
				if err != nil {
					b.Fatal(err)
				}
				sink = p
			}
		})
	}
	b.Run("Append", func(b *testing.B) {
		leaves := make([]Hash, 1024)
		for i := range leaves {
			leaves[i] = leaf(i)
		}
		t := &Tree{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Append(leaves[i%len(leaves)])
		}
	})
	_ = sink
}
