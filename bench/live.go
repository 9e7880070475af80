package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/corpus"
	"repro/internal/ctlog"
	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/lint"
	_ "repro/internal/lint/lints" // populates lint.Global
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/x509cert"
)

// consumer is the fleet's HandleSourced callback: ctmonitor's `handle`
// closure re-stated (it lives in package main over there), with the
// Unicert linter added between parse and the monitor models, where
// ROADMAP's one-ingest-path item puts it.
type consumer struct {
	ix     index.Index
	mons   []*monitor.Monitor
	nextID int

	parseErrors, putErrors int
	noncompliant, findings int
	records                int // index.Put calls: one per subject name

	tr *consumerTrace // nil on untraced crawls
}

func newConsumer(ix index.Index) *consumer {
	c := &consumer{ix: ix}
	for _, caps := range monitor.Monitors() {
		if !caps.Discontinued {
			c.mons = append(c.mons, monitor.New(caps))
		}
	}
	return c
}

// handle is the untraced consumer. It reads no clock.
func (c *consumer) handle(src string, e ctlog.Entry) {
	cert, err := x509cert.ParseWithMode(e.DER, x509cert.ParseLenient)
	if err != nil {
		c.parseErrors++
		return
	}
	c.tally(lint.Global.Run(cert, lint.Options{}))
	c.nextID++
	for _, m := range c.mons {
		indexContained(m, c.nextID, cert)
	}
	for _, rec := range index.FromCert(src, uint64(e.Index), ctlog.LeafHash(e.DER), cert) {
		c.put(rec)
	}
}

func (c *consumer) tally(res *lint.CertResult) {
	failed := 0
	for i := range res.Findings {
		if res.Findings[i].Status == lint.Fail {
			failed++
		}
	}
	if failed > 0 {
		c.noncompliant++
	}
	c.findings += failed
}

func (c *consumer) put(rec index.Record) {
	c.records++
	if err := c.ix.Put(rec); err != nil {
		c.putErrors++
	}
}

// indexContained mirrors ctmonitor's quarantine: a certificate that
// panics one monitor model must not take down the consumer.
func indexContained(m *monitor.Monitor, id int, cert *x509cert.Certificate) {
	defer func() { recover() }()
	m.Index(id, cert)
}

// consumerTrace is the traced consumer's bookkeeping. Every nanosecond
// between the coordinator's start and its return falls in exactly one
// of the five stage sums or in idle, so the consumer's rows of the
// layer table tile its wall time.
type consumerTrace struct {
	rec     *recorder
	lastEnd time.Time // end of the previous handler call (or run start)
	n       int

	parseNS, lintNS, modelsNS, fromCertNS, putNS, idleNS int64
	putUS                                                []float64 // one sample per Put
}

// spanEvery is the consumer-stage span sampling interval: every entry
// feeds the stage sums and the Put samples, every 64th also leaves its
// stages in the span file.
const spanEvery = 64

// handleTraced is handle with a clock read at every stage boundary.
func (c *consumer) handleTraced(src string, e ctlog.Entry) {
	tr := c.tr
	t0 := time.Now()
	tr.idleNS += t0.Sub(tr.lastEnd).Nanoseconds()
	sampled := tr.n%spanEvery == 0
	tr.n++
	var entrySpan int32
	if sampled {
		entrySpan = tr.rec.begin("fleet.consumer.entry", 0, t0)
	}

	cert, err := x509cert.ParseWithMode(e.DER, x509cert.ParseLenient)
	t1 := time.Now()
	tr.parseNS += t1.Sub(t0).Nanoseconds()
	if err != nil {
		c.parseErrors++
		tr.rec.end(entrySpan, t1)
		tr.lastEnd = t1
		return
	}
	c.tally(lint.Global.Run(cert, lint.Options{}))
	t2 := time.Now()
	c.nextID++
	for _, m := range c.mons {
		indexContained(m, c.nextID, cert)
	}
	t3 := time.Now()
	recs := index.FromCert(src, uint64(e.Index), ctlog.LeafHash(e.DER), cert)
	t4 := time.Now()
	p0 := t4
	for _, rec := range recs {
		c.put(rec)
		p1 := time.Now()
		tr.putUS = append(tr.putUS, float64(p1.Sub(p0).Nanoseconds())/1e3)
		tr.rec.record("index.put", entrySpan, p0, p1)
		p0 = p1
	}
	t5 := p0
	tr.lintNS += t2.Sub(t1).Nanoseconds()
	tr.modelsNS += t3.Sub(t2).Nanoseconds()
	tr.fromCertNS += t4.Sub(t3).Nanoseconds()
	tr.putNS += t5.Sub(t4).Nanoseconds()
	if sampled {
		tr.rec.record("x509cert.parse", entrySpan, t0, t1)
		tr.rec.record("lint.run", entrySpan, t1, t2)
		tr.rec.record("monitor.models", entrySpan, t2, t3)
		tr.rec.record("index.fromcert", entrySpan, t3, t4)
		tr.rec.end(entrySpan, t5)
	}
	tr.lastEnd = t5
}

// crawlOpts is one crawl's configuration, all of it from the grid.
type crawlOpts struct {
	audit bool
	batch int
	// paceSeconds > 0 releases each log's get-entries on an absolute
	// schedule that spreads the log evenly over that many seconds.
	paceSeconds float64
	rec         *recorder // nil = untraced
	dir         string    // scratch for the index, checkpoints and STH anchors
}

// crawl is one run of the deployed path over the live inputs: a fresh
// coordinator, consumer, index and scratch directory against the
// (read-only) logs.
type crawl struct {
	in    *liveInputs
	o     crawlOpts
	reg   *obs.Registry
	lsm   *index.LSM
	cons  *consumer
	coord *fleet.Coordinator
	specs []fleet.LogSpec
	paced []*schedule
	qs    *queryServer

	// Filled by run.
	res          *fleet.Result
	spent                // over the timed region
	runS, flushS float64 // its two parts: Coordinator.Run, final Flush
	heapBefore   float64
	fetched      int
}

func (in *liveInputs) newCrawl(o crawlOpts) (*crawl, error) {
	c := &crawl{in: in, o: o, reg: obs.NewRegistry()}
	lsm, err := index.Open(index.Options{Dir: filepath.Join(o.dir, "index"), Obs: c.reg})
	if err != nil {
		return nil, err
	}
	c.lsm = lsm
	c.cons = newConsumer(lsm)
	handle := c.cons.handle
	if o.rec != nil {
		c.cons.tr = &consumerTrace{rec: o.rec}
		handle = c.cons.handleTraced
	}
	for _, bl := range in.logs {
		client := &ctlog.Client{Base: bl.base, Obs: c.reg}
		var rt http.RoundTripper = &clientTransport{base: in.transport, t: in.trace}
		if o.paceSeconds > 0 {
			// The schedule's clock is set when run starts.
			s := newSchedule(time.Time{}, float64(bl.hi-bl.lo)/o.paceSeconds)
			c.paced = append(c.paced, s)
			rt = &pacedTransport{base: rt, sched: s}
			// An attempt waits for its slot inside the round trip, and on
			// a small log the next slot can be most of the window away.
			client.Timeout = ctlog.DefaultTimeout + time.Duration(o.paceSeconds*float64(time.Second))
		}
		client.HTTP = &http.Client{Transport: rt}
		c.specs = append(c.specs, fleet.LogSpec{Name: bl.name, Client: client, Batch: o.batch})
	}
	cfg := fleet.Config{
		Logs:          c.specs,
		CheckpointDir: filepath.Join(o.dir, "ckpt"),
		Audit:         o.audit,
		HandleSourced: handle,
		Obs:           c.reg,
	}
	if o.audit {
		cfg.STHStoreDir = filepath.Join(o.dir, "sth")
	}
	if c.coord, err = fleet.New(cfg); err != nil {
		lsm.Close()
		return nil, err
	}
	// The query API listens for the whole crawl, as it does in a
	// deployed monitor, whether or not anyone is asking.
	if c.qs, err = startQueryServer(index.Handler(lsm, c.reg, nil)); err != nil {
		lsm.Close()
		return nil, err
	}
	return c, nil
}

// run is the timed region: Coordinator.Run to the final Flush's return.
func (c *crawl) run(ctx context.Context) error {
	c.heapBefore = liveHeap()
	c.in.trace.set(c.o.rec)
	defer c.in.trace.set(nil)

	u := readUsage()
	for _, s := range c.paced {
		s.start = u.wall
	}
	if tr := c.cons.tr; tr != nil {
		tr.lastEnd = u.wall
	}
	res, err := c.coord.Run(ctx)
	ranAt := time.Now()
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if tr := c.cons.tr; tr != nil {
		tr.idleNS += ranAt.Sub(tr.lastEnd).Nanoseconds()
	}
	if err := c.lsm.Flush(); err != nil {
		return fmt.Errorf("index flush: %w", err)
	}
	c.spent = u.since()
	c.runS = ranAt.Sub(u.wall).Seconds()
	c.flushS = c.wallS - c.runS

	c.res = res
	for _, rep := range res.Logs {
		c.fetched += rep.Stats.Fetched
	}
	return nil
}

// pacerLateness is how far behind its schedule the slowest log's
// fetcher ever ran: a growing backlog shows here first.
func (c *crawl) pacerLateness() time.Duration {
	var max time.Duration
	for _, s := range c.paced {
		if l := s.lateness(); l > max {
			max = l
		}
	}
	return max
}

// close stops the query listener and closes the index, which also waits
// for the background compactor to go idle; only then are the crawl's
// two standing costs final. diskBytes is what it left under the index
// directory; residentBytes is the live heap it still pins — RAM-held
// segments, the dedup set, the monitor models — over the heap before
// it ran. Then the scratch is removed.
func (c *crawl) close() (diskBytes int64, residentBytes float64, err error) {
	c.qs.close()
	err = c.lsm.Close()
	residentBytes = liveHeap() - c.heapBefore
	werr := filepath.WalkDir(filepath.Join(c.o.dir, "index"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		diskBytes += info.Size()
		return nil
	})
	if err == nil {
		err = werr
	}
	if rerr := os.RemoveAll(c.o.dir); err == nil {
		err = rerr
	}
	return diskBytes, residentBytes, err
}

// checks tallies operations attempted and failed, with the first few
// failures spelled out for the report.
type checks struct {
	attempted, failed int64
	notes             []string
}

func (v *checks) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	v.failed += int64(n)
	if len(v.notes) < 12 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// validate checks one finished crawl against what the inputs say it
// must have produced. refNoncompliant is the sequential reference
// linter's count over the same certificates.
func (c *crawl) validate(v *checks, probes []probe, refNoncompliant int) {
	in, res := c.in, c.res
	certs, fetchable := in.nCerts, in.fetchable()
	v.attempted += int64(fetchable)

	// Overlap arithmetic: every certificate exactly once, every other
	// fetched entry a cross-log duplicate.
	v.fail(abs(res.UniqueEntries-certs), "crawl: %d unique entries, want %d", res.UniqueEntries, certs)
	v.fail(abs(res.DupEntries-(fetchable-certs)), "crawl: %d duplicates, want %d", res.DupEntries, fetchable-certs)
	if res.Interrupted || res.FinalState != fleet.Healthy.String() {
		v.fail(1, "crawl: final state %s, interrupted %v", res.FinalState, res.Interrupted)
	}
	for _, bl := range in.logs {
		rep := res.Logs[bl.name]
		if rep == nil {
			v.fail(bl.hi-bl.lo, "crawl: no report for log %s", bl.name)
			continue
		}
		st := rep.Stats
		v.fail(abs(st.Fetched-(bl.hi-bl.lo)), "crawl: log %s fetched %d, want %d", bl.name, st.Fetched, bl.hi-bl.lo)
		v.fail(st.ProofFailures, "crawl: log %s: %d proof failures", bl.name, st.ProofFailures)
		if c.o.audit {
			v.fail(abs(st.Audited-(st.Fetched-st.SkippedEntries)), "crawl: log %s audited %d of %d fetched", bl.name, st.Audited, st.Fetched)
		}
		if rep.Err != "" {
			v.fail(1, "crawl: log %s: %s", bl.name, rep.Err)
		}
	}
	v.fail(c.cons.parseErrors, "crawl: %d parse errors", c.cons.parseErrors)
	v.fail(c.cons.putErrors, "crawl: %d index put errors", c.cons.putErrors)
	v.fail(abs(c.cons.noncompliant-refNoncompliant), "crawl: linter flagged %d certificates, reference %d", c.cons.noncompliant, refNoncompliant)

	st := c.lsm.Stats()
	v.fail(abs(int(st.Certs)-c.cons.records), "crawl: index holds %d records, consumer put %d", st.Certs, c.cons.records)
	if st.Postings != 5*st.Certs {
		v.fail(1, "crawl: %d postings for %d records, want 5 each", st.Postings, st.Certs)
	}
	v.fail(len(st.Damaged), "crawl: damaged segments %v", st.Damaged)

	// A seeded sample of certificates must each be findable by domain,
	// carrying the leaf hash the log proved.
	v.attempted += int64(len(probes))
	for _, p := range probes {
		recs, err := c.lsm.Lookup(index.PointQuery(p.domain))
		if err != nil {
			v.fail(1, "crawl: lookup %q: %v", p.domain, err)
			continue
		}
		found := false
		for j := range recs {
			if recs[j].LeafHash == p.leaf {
				found = true
				break
			}
		}
		if !found {
			v.fail(1, "crawl: lookup %q: no record with the certificate's leaf hash among %d", p.domain, len(recs))
		}
	}
}

// probe is one post-run point lookup: a name a certificate is filed
// under and the leaf hash its record must carry.
type probe struct {
	domain string
	leaf   ctlog.Hash
}

// buildProbes draws the seeded sample of certificates validate looks up.
func buildProbes(seed int64, certs []*corpus.Entry) []probe {
	const lookups = 200
	rng := rand.New(rand.NewSource(seed))
	probes := make([]probe, 0, lookups)
	for i := 0; i < lookups; i++ {
		e := certs[rng.Intn(len(certs))]
		if domain, ok := firstDomain(e); ok {
			probes = append(probes, probe{domain, ctlog.LeafHash(e.DER)})
		}
	}
	return probes
}

// firstDomain is the first name index.FromCert files a certificate
// under.
func firstDomain(e *corpus.Entry) (string, bool) {
	name := e.Cert.Subject.CommonName()
	if names := e.Cert.DNSNames(); len(names) > 0 {
		name = names[0]
	}
	name = storedName(name)
	return name, name != ""
}

// referenceNoncompliant is the sequential reference linter over the
// certificates as the generator parsed them: the count the consumer's
// verdicts must reproduce.
func referenceNoncompliant(certs []*corpus.Entry) int {
	n := 0
	for _, e := range certs {
		if lint.Global.Run(e.Cert, lint.Options{}).Noncompliant() {
			n++
		}
	}
	return n
}
