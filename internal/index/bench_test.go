package index

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
)

// The T1–T5 query benchmark grid, run for both backends with
// `go test -run '^$' -bench Index -benchmem ./internal/index`:
//
//	T1 BenchmarkIndexPoint*   exact-domain lookup
//	T2 BenchmarkIndexPrefix*  domain-prefix scan
//	T3 BenchmarkIndexRange*   notBefore date-range scan
//	T4 BenchmarkIndexIngest*  write-heavy ingest (reports certs/s;
//	                          IngestCompacting adds write_amp)
//	T5 BenchmarkIndexMixed*   interleaved read/write
//
// The LSM variants run over a compacted on-disk store; the B+tree
// variants are the memory-resident baseline the DESIGN.md table
// compares against.

const benchRecords = 10000

// benchRecord is deterministic so every round indexes the same data:
// 10k hosts across 100 apex domains, 20 issuers, a 30-day notBefore
// spread.
func benchRecord(i int) Record {
	return mkRec(
		fmt.Sprintf("host%05d.example%02d.com", i, i%100),
		fmt.Sprintf("CN=Bench CA %02d", i%20),
		"alpha", uint64(i),
		testBase.Add(time.Duration(i%720)*time.Hour),
	)
}

func benchFill(b *testing.B, ix Index, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		if err := ix.Put(benchRecord(i)); err != nil {
			b.Fatalf("Put: %v", err)
		}
	}
	if err := ix.Flush(); err != nil {
		b.Fatalf("Flush: %v", err)
	}
	if err := ix.Compact(); err != nil {
		b.Fatalf("Compact: %v", err)
	}
}

// benchLSM builds a loaded, compacted on-disk store for the read
// benchmarks.
func benchLSM(b *testing.B) Index {
	b.Helper()
	lsm, err := Open(Options{Dir: b.TempDir(), CompactAfter: -1})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	b.Cleanup(func() { lsm.Close() })
	benchFill(b, lsm, benchRecords)
	return lsm
}

// benchBTree builds the loaded memory-resident baseline.
func benchBTree(b *testing.B) Index {
	b.Helper()
	bt := NewBTree()
	benchFill(b, bt, benchRecords)
	return bt
}

func benchPoint(b *testing.B, ix Index) {
	dst := make([]Record, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := PointQuery(fmt.Sprintf("host%05d.example%02d.com", i%benchRecords, i%100))
		var err error
		dst, err = ix.LookupAppend(q, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchPrefix(b *testing.B, ix Index) {
	dst := make([]Record, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// ~10 hosts share each host000xx prefix.
		q := PrefixQuery(fmt.Sprintf("host%04d", i%(benchRecords/10)))
		var err error
		dst, err = ix.LookupAppend(q, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		if len(dst) == 0 {
			b.Fatal("prefix scan returned nothing")
		}
	}
}

func benchRange(b *testing.B, ix Index) {
	dst := make([]Record, 0, DefaultLimit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A sliding 24h window over the 30-day spread (~330 records,
		// within the default limit).
		from := testBase.Add(time.Duration(i%696) * time.Hour)
		q := RangeQuery(from, from.Add(24*time.Hour))
		var err error
		dst, err = ix.LookupAppend(q, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		if len(dst) == 0 {
			b.Fatal("range scan returned nothing")
		}
	}
}

func BenchmarkIndexPointLSM(b *testing.B)    { benchPoint(b, benchLSM(b)) }
func BenchmarkIndexPointBTree(b *testing.B)  { benchPoint(b, benchBTree(b)) }
func BenchmarkIndexPrefixLSM(b *testing.B)   { benchPrefix(b, benchLSM(b)) }
func BenchmarkIndexPrefixBTree(b *testing.B) { benchPrefix(b, benchBTree(b)) }
func BenchmarkIndexRangeLSM(b *testing.B)    { benchRange(b, benchLSM(b)) }
func BenchmarkIndexRangeBTree(b *testing.B)  { benchRange(b, benchBTree(b)) }

// benchIngest measures sustained write throughput. The store is
// recycled every 50k puts so a long -benchtime cannot grow one store
// (or its segment directory) without bound; recycling happens off the
// clock.
func benchIngest(b *testing.B, mk func() (Index, func())) {
	const recycleEvery = 50000
	ix, cleanup := mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%recycleEvery == 0 {
			b.StopTimer()
			cleanup()
			ix, cleanup = mk()
			b.StartTimer()
		}
		if err := ix.Put(benchRecord(i % benchRecords)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cleanup()
	// One op indexes one certificate; report the rate so
	// scripts/allocguard.sh can derive allocs/cert from it.
	b.ReportMetric(float64(b.N)*1e9/float64(b.Elapsed().Nanoseconds()), "certs/s")
}

func BenchmarkIndexIngestLSM(b *testing.B) {
	benchIngest(b, func() (Index, func()) {
		dir, err := os.MkdirTemp("", "index-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		lsm, err := Open(Options{Dir: dir, CompactAfter: -1})
		if err != nil {
			b.Fatal(err)
		}
		return lsm, func() { lsm.Close(); os.RemoveAll(dir) }
	})
}

// BenchmarkIndexIngestCompacting prices the write path under the
// production policy — default Options, so background tiered compaction
// runs — which BenchmarkIndexIngestLSM leaves out. One op indexes
// 100k certificates into a fresh store and closes it; write_amp is the
// segment bytes written by flushes and merges over the bytes flushed.
func BenchmarkIndexIngestCompacting(b *testing.B) {
	const certs = 100000
	recs := make([]Record, benchRecords)
	for i := range recs {
		recs[i] = benchRecord(i)
	}
	var flushed, written float64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "index-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		var journal bytes.Buffer
		lsm, err := Open(Options{Dir: dir, Journal: obs.NewJournal(&journal, nil)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for i := 0; i < certs; i++ {
			if err := lsm.Put(recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := lsm.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.RemoveAll(dir)
		events, err := obs.ReadJournal(&journal)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			n, _ := ev.Attrs["bytes"].(float64)
			switch ev.Type {
			case "index.flush":
				flushed += n
				written += n
			case "index.compact":
				written += n
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*certs/b.Elapsed().Seconds(), "certs/s")
	b.ReportMetric(written/flushed, "write_amp")
}

func BenchmarkIndexIngestBTree(b *testing.B) {
	benchIngest(b, func() (Index, func()) { return NewBTree(), func() {} })
}

// benchMixed is the T5 read/write interleave: 3 point reads per write,
// with the LSM running its production flush/compaction policy.
func benchMixed(b *testing.B, ix Index) {
	benchFill(b, ix, benchRecords/10)
	dst := make([]Record, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			if err := ix.Put(benchRecord(i % benchRecords)); err != nil {
				b.Fatal(err)
			}
			continue
		}
		q := PointQuery(fmt.Sprintf("host%05d.example%02d.com", i%(benchRecords/10), i%100))
		var err error
		dst, err = ix.LookupAppend(q, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexMixedLSM(b *testing.B) {
	lsm, err := Open(Options{Dir: b.TempDir()}) // default flush + background compaction
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lsm.Close() })
	benchMixed(b, lsm)
}

func BenchmarkIndexMixedBTree(b *testing.B) {
	benchMixed(b, NewBTree())
}
