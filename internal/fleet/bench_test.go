package fleet

import (
	"context"
	"testing"
)

// BenchmarkFleetCrawl measures fleet-crawl throughput: four clean
// in-process logs with a shared (deduped) slice, crawled end to end
// through the coordinator — supervised workers, cross-log dedup,
// bounded feed, per-log checkpoints. The entries/s metric counts
// every fetched entry (unique + duplicate) per wall-clock second.
func BenchmarkFleetCrawl(b *testing.B) {
	const (
		logsN  = 4
		perLog = 200
	)
	shared := ders(b, "shared", perLog/4)
	bases := make([]string, logsN)
	for i := 0; i < logsN; i++ {
		leaves := ders(b, string(rune('a'+i)), perLog-len(shared))
		leaves = append(leaves, shared...)
		bases[i] = serveLog(b, 3000+int64(i), leaves)
	}
	const total = logsN * perLog

	b.ResetTimer()
	delivered := 0
	for i := 0; i < b.N; i++ {
		specs := make([]LogSpec, logsN)
		for j := range specs {
			specs[j] = LogSpec{
				Name:   string(rune('a' + j)),
				Client: fastClient(bases[j], nil),
				Batch:  64,
			}
		}
		coord, err := New(Config{
			Logs:          specs,
			CheckpointDir: b.TempDir(),
			Sleep:         noSleep,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := coord.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if got := res.UniqueEntries + res.DupEntries; got != total {
			b.Fatalf("delivered %d entries, want %d", got, total)
		}
		delivered += total
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "entries/s")
}
