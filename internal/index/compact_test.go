package index

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTieredCompactionPolicy runs the production compaction policy —
// background merges at the default fanout — over a small FlushAt, then
// checks the tier invariant at rest: no tier holds F segments, so the
// segment count is bounded by (F−1)·(tiers+1), and the merges lost and
// duplicated nothing.
func TestTieredCompactionPolicy(t *testing.T) {
	opts := Options{Dir: t.TempDir(), FlushAt: 64}
	lsm, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	m := &refModel{}
	const puts = 3000
	for i := 0; i < puts; i++ {
		rec := randRecord(rng, i)
		if err := lsm.Put(rec); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		m.put(rec)
	}
	if err := lsm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st := lsm.Stats()
	if st.Certs != puts || st.Postings != 5*st.Certs || st.MemPostings != 0 {
		t.Fatalf("stats after Close: %+v, want %d certs and 5 postings each", st, puts)
	}
	if st.Compactions == 0 {
		t.Fatalf("no background compaction ran: %+v", st)
	}
	f := lsm.opts.fanout()
	maxTier := lsm.opts.tier(int(st.Postings))
	perTier := map[int]int{}
	for _, s := range lsm.segments {
		tier := lsm.opts.tier(len(s.offs))
		if tier > maxTier {
			t.Fatalf("segment of %d postings in tier %d, above the store's tier %d", len(s.offs), tier, maxTier)
		}
		if perTier[tier]++; perTier[tier] >= f {
			t.Fatalf("tier %d holds %d segments after Close, fanout %d: %v", tier, perTier[tier], f, perTier)
		}
	}
	if bound := (f - 1) * (maxTier + 1); st.Segments > bound {
		t.Fatalf("%d segments, above (F-1)·(tiers+1) = %d", st.Segments, bound)
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	modelQueryBattery(t, "tiered", re, m)
}

// TestLSMConcurrentHammer races one writer against readers of every
// query class and Stats while the background compactor merges tiers.
// Every answer seen mid-flight must satisfy its query, and Stats must
// never see a half-applied Put or merge; after Close and reopen the
// store must equal the oracle.
func TestLSMConcurrentHammer(t *testing.T) {
	opts := Options{Dir: t.TempDir(), FlushAt: 32}
	lsm, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	recs := make([]Record, 1500)
	m := &refModel{}
	for i := range recs {
		recs[i] = randRecord(rng, i)
		m.put(recs[i])
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var dst []Record
			var lastCerts uint64
			for !done.Load() {
				d := modelDomains[rng.Intn(len(modelDomains))]
				from := testBase.Add(time.Duration(rng.Intn(96)) * time.Hour)
				q := [...]Query{
					PointQuery(d), PrefixQuery(d[:1]), HomographQuery(d),
					IssuerQuery(modelIssuers[rng.Intn(len(modelIssuers))]),
					RangeQuery(from, from.Add(12*time.Hour)),
				}[rng.Intn(5)]
				var err error
				if dst, err = lsm.LookupAppend(q, dst[:0]); err != nil {
					t.Errorf("%s lookup: %v", q.Class, err)
					return
				}
				if err := checkAnswer(q, dst); err != nil {
					t.Error(err)
					return
				}
				st := lsm.Stats()
				if st.Postings != 5*st.Certs || st.Certs < lastCerts {
					t.Errorf("mid-flight stats %+v after %d certs", st, lastCerts)
					return
				}
				lastCerts = st.Certs
			}
		}(int64(r))
	}
	for i, rec := range recs {
		if err := lsm.Put(rec); err != nil {
			t.Errorf("Put %d: %v", i, err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if err := lsm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if t.Failed() {
		return
	}
	if lsm.Stats().Compactions == 0 {
		t.Fatal("the compactor never ran during the hammer")
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	modelQueryBattery(t, "hammered", re, m)
}

// checkAnswer checks that every record in got satisfies q and that the
// records come in the class's key order.
func checkAnswer(q Query, got []Record) error {
	for i, r := range got {
		var ok bool
		switch q.Class {
		case Point:
			ok = r.Domain == q.Key
		case Prefix:
			ok = strings.HasPrefix(r.Domain, q.Key)
		case Homograph:
			ok = r.Skeleton == q.Key
		case Issuer:
			ok = r.Issuer == q.Key
		case Range:
			ok = r.NotBefore.Unix() >= q.From.Unix() && r.NotBefore.Unix() <= q.To.Unix()
		}
		if !ok {
			return fmt.Errorf("%s %q: record %d %+v does not match", q.Class, q.Key, i, r)
		}
		if i == 0 {
			continue
		}
		p := got[i-1]
		var before bool
		switch q.Class {
		case Prefix:
			before = p.Domain < r.Domain || p.Domain == r.Domain && p.Seq < r.Seq
		case Range:
			before = p.NotBefore.Unix() < r.NotBefore.Unix() || p.NotBefore.Unix() == r.NotBefore.Unix() && p.Seq < r.Seq
		default:
			before = p.Seq < r.Seq
		}
		if !before {
			return fmt.Errorf("%s %q: records %d and %d out of key order", q.Class, q.Key, i-1, i)
		}
	}
	return nil
}

// TestWritesAfterCloseFail: once Close has flushed and stopped the
// compactor, a Put or Flush would only strand postings in a memtable
// nothing persists, so both refuse with ErrClosed and leave the store
// as Close left it.
func TestWritesAfterCloseFail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, FlushAt: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rec := mkRec(fmt.Sprintf("late%d.example", i), "CN=Late CA", "alpha", uint64(i), testBase)
		if err := l.Put(rec); !errors.Is(err, ErrClosed) {
			t.Fatalf("put %d after Close: err = %v, want ErrClosed", i, err)
		}
	}
	if err := l.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: err = %v, want ErrClosed", err)
	}
	if st := l.Stats(); st.Certs != 0 || st.Segments != 0 {
		t.Fatalf("stats after refused writes: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
