package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileIsExactSample(t *testing.T) {
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {99, 198}, {99.9, 200}, {100, 200}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want the mean of the middle two, 2.5", got)
	}
	// One 400 ms stall counts as 10 ms: (1 + 2 + 10) / 3.
	if got := cappedMean([]float64{1, 2, 400}, 10); math.Abs(got-13.0/3) > 1e-12 {
		t.Errorf("cappedMean = %v, want 13/3", got)
	}
}

func TestHighestPercentileNeedsSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	// 2000 samples: p99.9 has 2 beyond, p99 has 20.
	if p, v := highestPercentile(series(2000), 10); p != 99 || v != 1980 {
		t.Errorf("2000 samples: got p%v = %v, want p99 = 1980", p, v)
	}
	// 20000 samples support p99.9 (20 beyond).
	if p, _ := highestPercentile(series(20000), 10); p != 99.9 {
		t.Errorf("20000 samples: got p%v, want p99.9", p)
	}
	// 150 samples: p95 has 7 beyond, p90 has 15.
	if p, v := highestPercentile(series(150), 10); p != 90 || v != 135 {
		t.Errorf("150 samples: got p%v = %v, want p90 = 135", p, v)
	}
	// Too few for any tail: the median.
	if p, _ := highestPercentile(series(12), 10); p != 50 {
		t.Errorf("12 samples: got p%v, want the median", p)
	}
}

func TestScheduleIsAbsolute(t *testing.T) {
	start := time.Now()
	s := newSchedule(start, 1000) // one unit per millisecond
	if got := s.due(250).Sub(start); got != 250*time.Millisecond {
		t.Fatalf("unit 250 due after %v, want 250ms", got)
	}
	// Fall 30ms behind, then ask for unit 5 (due at 5ms): wait must
	// return at once, report the lateness, and leave later units where
	// they were — no drift.
	time.Sleep(30 * time.Millisecond)
	before := time.Now()
	if !s.wait(nil, 5) {
		t.Error("wait for an overdue unit did not report it due")
	}
	if took := time.Since(before); took > 10*time.Millisecond {
		t.Errorf("wait for an overdue unit slept %v", took)
	}
	if late := s.lateness(); late < 20*time.Millisecond {
		t.Errorf("lateness %v, want at least the 25ms the caller was behind", late)
	}
	if got := s.due(250).Sub(start); got != 250*time.Millisecond {
		t.Errorf("after a late unit, unit 250 is due after %v, want still 250ms", got)
	}
	// A unit in the future is waited for.
	if !s.wait(nil, 60) {
		t.Error("wait for a future unit did not report it due")
	}
	if due, now := s.due(60), time.Now(); now.Before(due) {
		t.Errorf("wait returned %v before the unit was due", due.Sub(now))
	}
	// A closed done channel ends the wait at once.
	done := make(chan struct{})
	close(done)
	before = time.Now()
	if s.wait(done, 100000) {
		t.Error("wait reported a unit due after done had closed")
	}
	if took := time.Since(before); took > 10*time.Millisecond {
		t.Errorf("wait with done closed took %v", took)
	}
}

func TestQueryListIsDeterministicPerSeed(t *testing.T) {
	c, err := generateCorpus(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	a := buildQueries(11, 400, c.Entries, g.Query)
	b := buildQueries(11, 400, c.Entries, g.Query)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different query lists")
	}
	other := buildQueries(12, 400, c.Entries, g.Query)
	if reflect.DeepEqual(a, other) {
		t.Fatal("a different seed gave the same query list")
	}
	seen := map[int]int{}
	for i := range a {
		seen[a[i].class]++
		if a[i].url == "" {
			t.Fatalf("query %d has no URL", i)
		}
	}
	for c, name := range queryClasses {
		if share := float64(seen[c]) / float64(len(a)); share < 0.15 || share > 0.35 {
			t.Errorf("class %s is %.0f%% of the mix, want about 25%%", name, 100*share)
		}
	}
}

func TestCoverage(t *testing.T) {
	if got := coverage([]float64{1, 2, 3}, 3.5, 10); got != 0.95 {
		t.Errorf("coverage = %v, want 0.95", got)
	}
	if got := coverage(nil, 0, 0); got != 0 {
		t.Errorf("coverage over zero wall = %v, want 0", got)
	}
}

func TestWorseBy(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worseBy(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110: worse by %v, want 0.10", got)
	}
	if got := worseBy(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→90: worse by %v, want 0.10", got)
	}
	if got := worseBy(higher, 100, 120); got >= 0 {
		t.Errorf("higher-is-better 100→120: worse by %v, want negative", got)
	}
}

// smokeGrid is the grid shrunk until all four workloads, traced and
// untraced, finish in a few seconds.
func smokeGrid(t *testing.T) *grid {
	t.Helper()
	g, err := loadGrid(0.02)
	if err != nil {
		t.Fatal(err)
	}
	g.Query.TailSeconds = 0.2
	return g
}

func TestSmokeAllWorkloads(t *testing.T) {
	g := smokeGrid(t)
	for _, spec := range g.Workloads {
		for _, traced := range []bool{false, true} {
			p := runParams{seed: 31, seconds: 0.5, traced: traced, outDir: t.TempDir()}
			res, err := runWorkload(context.Background(), g, spec, p)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.Name, traced, err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", spec.Name, traced, res.failed, res.attempted, res.notes)
			}
			if !traced {
				for _, d := range endToEnd {
					if v, ok := res.metrics[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: end-to-end metric %s = %v (present %v), want a positive number", spec.Name, d.Name, v, ok)
					}
				}
				continue
			}
			known := map[string]bool{}
			for _, d := range perLayer(g) {
				known[d.Name] = true
			}
			for name, v := range res.metrics {
				if !known[name] {
					t.Errorf("%s: traced run reported %s, which perLayer does not declare", spec.Name, name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", spec.Name, name, v)
				}
			}
			if !spec.live() {
				continue
			}
			m := res.metrics
			if cov := m["bench.trace.consumer_coverage"]; cov < 0.95 || cov > 1.05 {
				t.Errorf("%s: consumer rows + idle cover %.3f of its wall, want 0.95..1.05", spec.Name, cov)
			}
			if got, want := m["ctlog.client.roundtrip_s"]+m["monitor.sync.other_s"], m["monitor.sync.worker_s"]; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s: roundtrip + other = %v, worker = %v", spec.Name, got, want)
			}
			if n := m["ctlog.server.get-sth-consistency.requests"]; spec.Audit == (n == 0) {
				t.Errorf("%s: audit=%v but %v consistency requests", spec.Name, spec.Audit, n)
			}
			if m["bench.trace.spans"] == 0 || m["bench.trace.spans_dropped"] != 0 {
				t.Errorf("%s: %v spans recorded, %v dropped", spec.Name, m["bench.trace.spans"], m["bench.trace.spans_dropped"])
			}
			if _, err := os.Stat(p.outDir + "/spans-" + spec.Name + ".jsonl"); err != nil {
				t.Errorf("%s: no span file: %v", spec.Name, err)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps the declaration the driver reads in
// step with what the harness reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	g, err := loadGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(g.Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, workloads.json %d", len(decl.Workloads), len(g.Workloads))
	}
	for i, w := range g.Workloads {
		if decl.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, workloads.json %q", i, decl.Workloads[i].Name, w.Name)
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %v\n harness        %v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer(g)) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %v\n harness        %v", decl.PerLayer, perLayer(g))
	}
}
