package lint

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/x509cert"
)

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	l := &Lint{
		Name:     "e_test_rule",
		Severity: Error,
		Run:      func(*x509cert.Certificate) Result { return PassResult },
	}
	r.Register(l)
	if r.Count() != 1 {
		t.Fatalf("count %d", r.Count())
	}
	got, ok := r.ByName("e_test_rule")
	if !ok || got != l {
		t.Fatal("lookup failed")
	}
	if _, ok := r.ByName("missing"); ok {
		t.Fatal("phantom lint")
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	mk := func() *Lint {
		return &Lint{Name: "e_dup", Run: func(*x509cert.Certificate) Result { return PassResult }}
	}
	r.Register(mk())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.Register(mk())
}

func TestRunStatusTransitions(t *testing.T) {
	r := NewRegistry()
	r.Register(&Lint{
		Name:          "e_always_fails",
		Severity:      Error,
		EffectiveDate: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		Run:           func(*x509cert.Certificate) Result { return Failf("boom") },
	})
	r.Register(&Lint{
		Name:         "e_never_applies",
		Severity:     Error,
		CheckApplies: func(*x509cert.Certificate) bool { return false },
		Run:          func(*x509cert.Certificate) Result { return Failf("unreachable") },
	})
	newCert := &x509cert.Certificate{NotBefore: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
	oldCert := &x509cert.Certificate{NotBefore: time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)}

	res := r.Run(newCert, Options{})
	byName := map[string]Status{}
	for _, f := range res.Findings {
		byName[res.Lint(f).Name] = f.Status
	}
	if byName["e_always_fails"] != Fail {
		t.Errorf("new cert: %s", byName["e_always_fails"])
	}
	if byName["e_never_applies"] != NA {
		t.Errorf("inapplicable: %s", byName["e_never_applies"])
	}

	res = r.Run(oldCert, Options{})
	for _, f := range res.Findings {
		if res.Lint(f).Name == "e_always_fails" && f.Status != NE {
			t.Errorf("pre-effective cert: %s", f.Status)
		}
	}
	res = r.Run(oldCert, Options{IgnoreEffectiveDates: true})
	for _, f := range res.Findings {
		if res.Lint(f).Name == "e_always_fails" && f.Status != Fail {
			t.Errorf("ignored dates: %s", f.Status)
		}
	}
}

func TestCertResultSeverityViews(t *testing.T) {
	r := NewRegistry()
	r.Register(&Lint{Name: "e_x", Severity: Error, Run: func(*x509cert.Certificate) Result { return Failf("x") }})
	r.Register(&Lint{Name: "w_y", Severity: Warning, Run: func(*x509cert.Certificate) Result { return Failf("y") }})
	r.Register(&Lint{Name: "w_z", Severity: Warning, Run: func(*x509cert.Certificate) Result { return PassResult }})
	res := r.Run(&x509cert.Certificate{NotBefore: time.Now()}, Options{})
	failed := res.Failed()
	if len(failed) != 2 || failed[0].Lint.Severity != Error || failed[1].Lint.Severity != Warning {
		t.Fatalf("failed %+v, want e_x (error) then w_y (warning)", failed)
	}
}

func TestTaxonomyGrouping(t *testing.T) {
	if T1InvalidCharacter.Group() != "T1" || T2BadNormalization.Group() != "T2" || T3InvalidEncoding.Group() != "T3" {
		t.Fatal("taxonomy groups wrong")
	}
	if len(Taxonomies()) != 6 {
		t.Fatalf("want 6 taxonomy classes")
	}
}

func TestSnapshotSortedAndCached(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"e_c", "e_a", "e_b"} {
		r.Register(&Lint{Name: name, Run: func(*x509cert.Certificate) Result { return PassResult }})
	}
	s1 := r.Snapshot()
	if len(s1) != 3 || s1[0].Name != "e_a" || s1[1].Name != "e_b" || s1[2].Name != "e_c" {
		t.Fatalf("snapshot not sorted: %v", s1)
	}
	s2 := r.Snapshot()
	if &s1[0] != &s2[0] {
		t.Fatal("snapshot not cached between calls")
	}
	// Register invalidates the snapshot.
	r.Register(&Lint{Name: "e_aa", Run: func(*x509cert.Certificate) Result { return PassResult }})
	s3 := r.Snapshot()
	if len(s3) != 4 || s3[1].Name != "e_aa" {
		t.Fatalf("snapshot stale after Register: %v", s3)
	}
	// All returns a private copy; mutating it must not corrupt the
	// shared snapshot.
	all := r.All()
	all[0] = nil
	if r.Snapshot()[0] == nil {
		t.Fatal("All aliases the shared snapshot")
	}
}

func TestSnapshotConcurrentRuns(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Register(&Lint{Name: fmt.Sprintf("e_l%02d", i), Run: func(*x509cert.Certificate) Result { return PassResult }})
	}
	c := &x509cert.Certificate{NotBefore: time.Now()}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := len(r.Run(c, Options{}).Findings); got != 20 {
					t.Errorf("findings %d", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// benchRegistry builds a 95-lint registry shaped like the real one;
// every third lint fails so hit counters are exercised.
func benchRegistry() *Registry {
	r := NewRegistry()
	for i := 0; i < 95; i++ {
		l := &Lint{
			Name:     fmt.Sprintf("e_bench_lint_%02d", i),
			Severity: Severity(i % 3),
			Run:      func(*x509cert.Certificate) Result { return PassResult },
		}
		if i%3 == 0 {
			l.Run = func(*x509cert.Certificate) Result { return Result{Status: Fail, Details: "bench"} }
		}
		if i%7 == 0 {
			l.EffectiveDate = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
		}
		if i%11 == 0 {
			l.CheckApplies = func(*x509cert.Certificate) bool { return false }
		}
		r.Register(l)
	}
	return r
}

// BenchmarkRegistryRun guards the Snapshot optimization: Run used to
// call All() (lock + map walk + sort of every lint) once per
// certificate; it now walks the cached snapshot, and the only
// remaining allocations are the result and its pre-sized findings.
// The /metrics sub-benchmark proves per-lint hit counters ride along
// without adding allocations.
func BenchmarkRegistryRun(b *testing.B) {
	c := &x509cert.Certificate{NotBefore: time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)}
	run := func(b *testing.B, r *Registry) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := r.Run(c, Options{}); len(res.Findings) != 95 {
				b.Fatalf("findings %d", len(res.Findings))
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, benchRegistry()) })
	b.Run("metrics", func(b *testing.B) {
		r := benchRegistry()
		r.EnableMetrics(obs.NewRegistry())
		run(b, r)
	})
}

// TestRunAllocBudget enforces the instrumentation alloc budget from
// the bench guard as a test: Run with per-lint hit counters enabled
// must stay at the bare path's 2 allocations per certificate (the
// CertResult and its findings slice; details are carved from shared
// chunks). A certificate that no lint fails keeps under 600 bytes: the
// verdict is the CertResult and 4 bytes per lint.
func TestRunAllocBudget(t *testing.T) {
	r := benchRegistry()
	r.EnableMetrics(obs.NewRegistry())
	c := &x509cert.Certificate{NotBefore: time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)}
	r.Run(c, Options{}) // warm the snapshot
	if n := testing.AllocsPerRun(200, func() { r.Run(c, Options{}) }); n > 2 {
		t.Fatalf("Run with metrics allocates %v/cert, budget is 2", n)
	}

	r = NewRegistry()
	for i := 0; i < 95; i++ {
		r.Register(&Lint{Name: fmt.Sprintf("e_pass_%02d", i), Run: func(*x509cert.Certificate) Result { return PassResult }})
	}
	r.Run(c, Options{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	for i := 0; i < runs; i++ {
		r.Run(c, Options{})
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= 600 {
		t.Fatalf("a compliant 95-lint Run allocates %d B, budget is under 600", b)
	}
}

// TestFindingPointerFree pins the verdict layout: a Finding is at most
// 4 bytes and holds no pointer, so the collector never scans findings.
func TestFindingPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Finding{}); n > 4 {
		t.Errorf("Finding is %d bytes, want at most 4", n)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !pointerFree(typ.Field(i).Type) {
					t.Logf("%s.%s is a %s", typ, typ.Field(i).Name, typ.Field(i).Type)
					return false
				}
			}
			return true
		}
		return false
	}
	if !pointerFree(reflect.TypeOf(Finding{})) {
		t.Error("Finding holds a pointer")
	}
}

// TestCertResultViews checks what a result resolves from its
// pointer-free findings: each finding's lint and details, the failed
// lints with their details, and the fail count.
func TestCertResultViews(t *testing.T) {
	r := NewRegistry()
	r.Register(&Lint{Name: "e_a", Run: func(*x509cert.Certificate) Result { return Failf("a %d", 1) }})
	r.Register(&Lint{Name: "e_b", Run: func(*x509cert.Certificate) Result { return PassResult }})
	r.Register(&Lint{Name: "e_c", Run: func(*x509cert.Certificate) Result { return Result{Status: Pass, Details: "noted"} }})
	r.Register(&Lint{Name: "e_d", Run: func(*x509cert.Certificate) Result { return Failf("d") }})
	c := &x509cert.Certificate{NotBefore: time.Now()}
	res := r.Run(c, Options{})
	var got []string
	for _, f := range res.Findings {
		got = append(got, fmt.Sprintf("%s/%s/%s", res.Lint(f).Name, f.Status, res.Details(f)))
	}
	if want := "[e_a/fail/a 1 e_b/pass/ e_c/pass/noted e_d/fail/d]"; fmt.Sprint(got) != want {
		t.Errorf("findings %s, want %s", got, want)
	}
	failed := res.Failed()
	if len(failed) != 2 || failed[0].Lint.Name != "e_a" || failed[0].Details != "a 1" || failed[1].Lint.Name != "e_d" || failed[1].Details != "d" {
		t.Errorf("Failed() = %+v", failed)
	}
	if !res.Noncompliant() {
		t.Error("a result with failures is compliant")
	}

	res = r.Run(c, Options{Only: map[string]bool{"e_b": true, "e_c": true}})
	if res.Noncompliant() || res.Failed() != nil || res.Details(res.Findings[1]) != "noted" {
		t.Errorf("passing subset: noncompliant %v, failed %v", res.Noncompliant(), res.Failed())
	}
	if n := testing.AllocsPerRun(10, func() { res.Noncompliant(); res.Failed() }); n != 0 {
		t.Errorf("Noncompliant and Failed of a compliant result allocate %v", n)
	}
}

// TestDetailChunks checks that results carved from shared chunks keep
// their own details when runs fill a chunk and move to a fresh one,
// with several goroutines taking chunks from the pool at once.
func TestDetailChunks(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 95; i++ {
		l := &Lint{Name: fmt.Sprintf("e_chunk_%02d", i), Run: func(*x509cert.Certificate) Result { return PassResult }}
		if i%3 == 0 {
			l.Run = func(c *x509cert.Certificate) Result { return Failf("%d", c.NotBefore.Unix()) }
		}
		r.Register(l)
	}
	const runs = 120 // ~3 800 details per goroutine: a few chunks
	results := make([][]*CertResult, 4)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				c := &x509cert.Certificate{NotBefore: time.Unix(int64(w*runs+i), 0)}
				results[w] = append(results[w], r.Run(c, Options{}))
			}
		}(w)
	}
	wg.Wait()
	for w := range results {
		for i, res := range results[w] {
			want := fmt.Sprint(w*runs + i)
			for _, f := range res.Findings {
				if d := res.Details(f); (f.Status == Fail) != (d == want) {
					t.Fatalf("result %d: %s (%s) has details %q, want %q only on a fail", w*runs+i, res.Lint(f).Name, f.Status, d, want)
				}
			}
			if got := len(res.Failed()); got != 32 {
				t.Fatalf("result %d: %d failed, want 32", w*runs+i, got)
			}
		}
	}
}

// TestHitCounters checks the per-lint Fail accounting that feeds the
// live Table 1 view.
func TestHitCounters(t *testing.T) {
	r := NewRegistry()
	r.Register(&Lint{Name: "e_fails", Run: func(*x509cert.Certificate) Result { return Failf("x") }})
	oreg := obs.NewRegistry()
	r.EnableMetrics(oreg)
	// Lints registered after EnableMetrics get counters too.
	r.Register(&Lint{Name: "e_passes", Run: func(*x509cert.Certificate) Result { return PassResult }})
	c := &x509cert.Certificate{NotBefore: time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)}
	for i := 0; i < 3; i++ {
		r.Run(c, Options{})
	}
	if got := oreg.Counter("lint_hits_total", "lint", "e_fails").Value(); got != 3 {
		t.Fatalf("e_fails hits = %d, want 3", got)
	}
	if got := oreg.Counter("lint_hits_total", "lint", "e_passes").Value(); got != 0 {
		t.Fatalf("e_passes hits = %d, want 0", got)
	}
}

func TestOnlyFilter(t *testing.T) {
	r := NewRegistry()
	r.Register(&Lint{Name: "e_a", Run: func(*x509cert.Certificate) Result { return Failf("a") }})
	r.Register(&Lint{Name: "e_b", Run: func(*x509cert.Certificate) Result { return Failf("b") }})
	res := r.Run(&x509cert.Certificate{NotBefore: time.Now()}, Options{Only: map[string]bool{"e_a": true}})
	if len(res.Findings) != 1 || res.Lint(res.Findings[0]).Name != "e_a" {
		t.Fatalf("findings %+v", res.Findings)
	}
}
