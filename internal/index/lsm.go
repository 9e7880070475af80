package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// LSM is the persistent backend: a sorted memtable absorbs writes,
// flushes stream it into immutable CRC-sealed segment files, and a
// background compactor merges segments by size tier — once F segments
// of one tier exist they merge into one segment of a higher tier — so
// a posting is rewritten O(log n) times and reads fan out across
// O(F·log n) sorted runs. The store is append-only (no updates, no
// deletes — CT logs never un-log), so compaction is a pure k-way merge
// with full-key duplicate collapse, and a crash at any point leaves
// either valid files or files the opener quarantines and REPORTS.
type LSM struct {
	opts Options

	mu       sync.RWMutex
	mem      memtable
	segments []*segment
	damaged  []string
	nextSeg  int64

	seq         atomic.Uint64
	flushes     atomic.Uint64
	compactions atomic.Uint64

	compactMu   sync.Mutex // serializes merges
	compactKick chan struct{}
	compactDone chan struct{}
	closed      bool

	putCtr     *obs.Counter
	flushCtr   *obs.Counter
	compactCtr *obs.Counter
	damagedCtr *obs.Counter

	encBuf, keyBuf []byte // Put scratch; guarded by mu
}

// ErrClosed is what Put and Flush return once Close has run: a write
// accepted then would sit in the memtable and never be flushed.
var ErrClosed = errors.New("index: store is closed")

// Options tunes an LSM store. Only Dir is required.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// FlushAt is the memtable posting count that triggers an automatic
	// flush (default 4096).
	FlushAt int
	// CompactAfter is the size-tier fanout F of background compaction:
	// a segment of p postings sits in tier ⌊log_F(p/FlushAt)⌋, and once
	// a tier holds F segments they merge into one (default 4, at least
	// 2; negative disables auto-compaction — tests drive Compact
	// explicitly for determinism).
	CompactAfter int
	// Obs, when non-nil, receives the index_* instruments.
	Obs *obs.Registry
	// Journal, when non-nil, receives index.open/flush/compact/
	// segment_damaged events.
	Journal *obs.Journal
}

func (o Options) flushAt() int {
	if o.FlushAt > 0 {
		return o.FlushAt
	}
	return 4096
}

// fanout is the tier fanout F; negative means auto-compaction is off.
func (o Options) fanout() int {
	switch {
	case o.CompactAfter == 0:
		return 4
	case o.CompactAfter == 1:
		return 2
	}
	return o.CompactAfter
}

// tier is a segment's size tier, ⌊log_F(postings/FlushAt)⌋; segments
// smaller than FlushAt (a Close-time flush) sit in tier 0.
func (o Options) tier(postings int) int {
	t, f := 0, o.fanout()
	for n := postings / o.flushAt(); n >= f; n /= f {
		t++
	}
	return t
}

// memtable is the mutable sorted run. Postings append to one arena in
// arrival order, and binary-search insertion keeps offs in key order,
// so an insert shifts 4 bytes per posting. It is bounded by FlushAt,
// and a flush reuses its arena.
type memtable struct {
	run
	certs uint64
}

func (m *memtable) insert(key, val []byte) {
	i := m.search(key)
	off := uint32(len(m.buf))
	m.buf = appendPosting(m.buf, key, val)
	m.offs = append(m.offs, 0)
	copy(m.offs[i+1:], m.offs[i:])
	m.offs[i] = off
	if key[0] == spaceCert {
		m.certs++
	}
}

func (m *memtable) reset() { m.buf, m.offs, m.certs = m.buf[:0], m.offs[:0], 0 }

// Open loads (or creates) an LSM store in opts.Dir. Segment files that
// fail validation are renamed *.damaged, counted, journaled, and
// listed in Stats().Damaged — reported, never silently dropped — and
// the rest of the store loads normally.
func Open(opts Options) (*LSM, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("index: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("index: creating dir: %w", err)
	}
	l := &LSM{
		opts:        opts,
		compactKick: make(chan struct{}, 1),
		compactDone: make(chan struct{}),
	}
	files, err := segmentFiles(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("index: listing segments: %w", err)
	}
	var maxSeq uint64
	for _, path := range files {
		if id := segmentID(path); id >= l.nextSeg {
			l.nextSeg = id + 1
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("index: reading segment: %w", err)
		}
		seg, perr := parseSegment(path, buf)
		if perr != nil {
			l.quarantine(path, perr)
			continue
		}
		for i := range seg.offs {
			if s := keySeq(seg.key(i)); s > maxSeq {
				maxSeq = s
			}
		}
		l.segments = append(l.segments, seg)
	}
	l.seq.Store(maxSeq)
	l.instrument()
	l.opts.Journal.Emit(nil, "index.open", map[string]any{
		"dir": opts.Dir, "segments": len(l.segments), "damaged": len(l.damaged),
	})
	go l.compactLoop()
	return l, nil
}

// quarantine records and journals one unloadable segment, renaming it
// out of the segment namespace so a later compaction cannot silently
// resurrect a half-file.
func (l *LSM) quarantine(path string, cause error) {
	os.Rename(path, path+".damaged")
	l.damaged = append(l.damaged, path)
	l.damagedCtr.Inc()
	l.opts.Journal.Emit(nil, "index.segment_damaged", map[string]any{
		"file": path, "reason": cause.Error(),
	})
}

// keySeq extracts the trailing sequence number of a posting key.
func keySeq(k []byte) uint64 {
	if len(k) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(k[len(k)-8:])
}

func (l *LSM) instrument() {
	reg := l.opts.Obs
	if reg == nil {
		return
	}
	reg.Help("index_puts_total", "Certificates indexed (Put calls).")
	reg.Help("index_postings", "Live posting keys across memtable and segments.")
	reg.Help("index_segments", "Loaded immutable index segments.")
	reg.Help("index_memtable_postings", "Posting keys in the mutable memtable.")
	reg.Help("index_flushes_total", "Memtable flushes to segment files.")
	reg.Help("index_compactions_total", "Segment compaction merges completed.")
	reg.Help("index_segments_damaged_total", "Segment files quarantined at open for failing validation.")
	l.putCtr = reg.Counter("index_puts_total")
	l.flushCtr = reg.Counter("index_flushes_total")
	l.compactCtr = reg.Counter("index_compactions_total")
	l.damagedCtr = reg.Counter("index_segments_damaged_total")
	reg.GaugeFunc("index_postings", func() float64 { return float64(l.Stats().Postings) })
	reg.GaugeFunc("index_segments", func() float64 {
		l.mu.RLock()
		defer l.mu.RUnlock()
		return float64(len(l.segments))
	})
	reg.GaugeFunc("index_memtable_postings", func() float64 {
		l.mu.RLock()
		defer l.mu.RUnlock()
		return float64(len(l.mem.offs))
	})
	for range l.damaged {
		l.damagedCtr.Inc()
	}
}

// Put implements Index. The memtable flushes synchronously when full
// (bounding memory exactly); compaction, the expensive part, happens
// in the background.
func (l *LSM) Put(rec Record) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	rec.Seq = l.seq.Add(1)
	l.encBuf = appendRecord(l.encBuf[:0], &rec)
	var err error
	l.keyBuf, err = postings(&rec, l.keyBuf, func(key []byte) { l.mem.insert(key, l.encBuf) })
	if err != nil {
		l.mu.Unlock()
		return err
	}
	full := len(l.mem.offs) >= l.opts.flushAt()
	var ferr error
	if full {
		ferr = l.flushLocked()
	}
	l.mu.Unlock()
	l.putCtr.Inc()
	if ferr != nil {
		return ferr
	}
	if full {
		l.maybeKickCompact()
	}
	return nil
}

// Flush implements Index: persist the memtable as a new segment file.
func (l *LSM) Flush() error {
	l.mu.Lock()
	err := ErrClosed
	if !l.closed {
		err = l.flushLocked()
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.maybeKickCompact()
	return nil
}

func (l *LSM) flushLocked() error {
	m := &l.mem
	if len(m.offs) == 0 {
		return nil
	}
	w := newSegmentWriter(len(m.offs), len(m.buf))
	for i := range m.offs {
		_, _, raw := m.posting(i)
		w.add(raw)
	}
	path := segmentPath(l.opts.Dir, l.nextSeg)
	buf := w.finish()
	seg, err := publish(path, buf)
	if err != nil {
		return err
	}
	l.nextSeg++
	l.segments = append(l.segments, seg)
	postings := len(m.offs)
	m.reset()
	l.flushes.Add(1)
	l.flushCtr.Inc()
	l.opts.Journal.Emit(nil, "index.flush", map[string]any{
		"segment": path, "postings": postings, "bytes": len(buf),
	})
	return nil
}

// publish durably writes a finished segment image and loads it back
// through parseSegment, so a writer that disagrees with the reader
// fails here rather than at the next open.
func publish(path string, buf []byte) (*segment, error) {
	if err := writeSegment(path, buf); err != nil {
		return nil, err
	}
	seg, err := parseSegment(path, buf)
	if err != nil {
		return nil, fmt.Errorf("index: freshly written segment failed validation: %w", err)
	}
	return seg, nil
}

// fullTier returns the oldest F segments of the lowest tier holding F
// or more, or nil when no tier is full or auto-compaction is off.
// Callers hold mu.
func (l *LSM) fullTier() []*segment {
	f := l.opts.fanout()
	if f < 0 {
		return nil
	}
	var count [64]int // a tier is at most log2 of a uint32 posting count
	full := -1
	for _, s := range l.segments {
		t := l.opts.tier(len(s.offs))
		if count[t]++; count[t] >= f && (full < 0 || t < full) {
			full = t
		}
	}
	if full < 0 {
		return nil
	}
	inputs := make([]*segment, 0, f)
	for _, s := range l.segments {
		if len(inputs) < f && l.opts.tier(len(s.offs)) == full {
			inputs = append(inputs, s)
		}
	}
	return inputs
}

func (l *LSM) maybeKickCompact() {
	l.mu.RLock()
	want := !l.closed && l.fullTier() != nil
	l.mu.RUnlock()
	if !want {
		return
	}
	select {
	case l.compactKick <- struct{}{}:
	default:
	}
}

// compactLoop is the background compactor: one goroutine, woken by
// flushes that fill a tier, gone at Close.
func (l *LSM) compactLoop() {
	defer close(l.compactDone)
	for range l.compactKick {
		if err := l.compactTiers(); err != nil {
			l.opts.Journal.Emit(nil, "index.compact_error", map[string]any{"err": err.Error()})
		}
	}
}

// compactTiers merges full tiers, lowest first, until none is full.
func (l *LSM) compactTiers() error {
	for {
		l.compactMu.Lock()
		l.mu.RLock()
		inputs := l.fullTier()
		l.mu.RUnlock()
		var err error
		if inputs != nil {
			err = l.merge(inputs)
		}
		l.compactMu.Unlock()
		if inputs == nil || err != nil {
			return err
		}
	}
}

// Compact merges every current segment into one, whatever its tier.
func (l *LSM) Compact() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.RLock()
	inputs := slices.Clone(l.segments)
	l.mu.RUnlock()
	if len(inputs) < 2 {
		return nil
	}
	return l.merge(inputs)
}

// merge streams the k-way merge of inputs into one new segment,
// collapsing full-key duplicates (which only exist after a crash
// between a previous merge's rename and its input unlinks), and swaps
// it in for them by identity, so segments flushed or merged meanwhile
// stay. Queries proceed against the inputs until the swap. Callers
// hold compactMu.
func (l *LSM) merge(inputs []*segment) error {
	l.mu.Lock()
	id := l.nextSeg
	l.nextSeg++ // reserve: a concurrent flush must not claim the same file
	l.mu.Unlock()

	cursors := make([]cursor, len(inputs))
	n, dataLen := 0, 0
	for i, s := range inputs {
		cursors[i] = cursor{r: &s.run}
		n += len(s.offs)
		dataLen += len(s.buf)
	}
	w := newSegmentWriter(n, dataLen)
	mergeCursors(cursors, nil, nil, func(c *cursor) bool {
		_, _, raw := c.posting()
		w.add(raw)
		return true
	})
	path := segmentPath(l.opts.Dir, id)
	buf := w.finish()
	merged, err := publish(path, buf)
	if err != nil {
		return err
	}

	l.mu.Lock()
	kept := make([]*segment, 0, len(l.segments)-len(inputs)+1)
	for _, s := range l.segments {
		switch {
		case !slices.Contains(inputs, s):
			kept = append(kept, s)
		case merged != nil: // the merge takes its first input's place
			kept = append(kept, merged)
			merged = nil
		}
	}
	l.segments = kept
	l.mu.Unlock()
	for _, s := range inputs {
		os.Remove(s.path)
	}
	l.compactions.Add(1)
	l.compactCtr.Inc()
	l.opts.Journal.Emit(nil, "index.compact", map[string]any{
		"inputs": len(inputs), "postings": w.count, "bytes": len(buf), "segment": path,
	})
	return nil
}

// Lookup implements Index.
func (l *LSM) Lookup(q Query) ([]Record, error) { return l.LookupAppend(q, nil) }

// LookupAppend implements Index.
func (l *LSM) LookupAppend(q Query, dst []Record) ([]Record, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return evalLookup((*lsmStore)(l), q, dst)
}

// lsmStore is the scan view over the locked LSM; callers hold mu.RLock.
type lsmStore LSM

func (s *lsmStore) sources(bloomPrimary []byte) []cursor {
	cs := make([]cursor, 0, len(s.segments)+1)
	cs = append(cs, cursor{r: &s.mem.run})
	for _, seg := range s.segments {
		if bloomPrimary != nil && !seg.bloom.mayContain(bloomPrimary) {
			continue
		}
		cs = append(cs, cursor{r: &seg.run})
	}
	return cs
}

func (s *lsmStore) scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	mergeCursors(s.sources(nil), lo, hi, func(c *cursor) bool {
		key, val, _ := c.posting()
		return fn(key, val)
	})
	return nil
}

func (s *lsmStore) scanExact(prefix []byte, fn func(key, val []byte) bool) error {
	// prefix is <space> 0x00 <primary> 0x00; the blooms store the form
	// without the trailing separator.
	mergeCursors(s.sources(prefix[:len(prefix)-1]), prefix, upperBound(prefix), func(c *cursor) bool {
		key, val, _ := c.posting()
		return fn(key, val)
	})
	return nil
}

// cursor walks one sorted run, caching the key under it (nil once
// the run is exhausted or past the scan window).
type cursor struct {
	r   *run
	i   int
	key []byte
}

func (c *cursor) load() {
	c.key = nil
	if c.i < len(c.r.offs) {
		c.key = c.r.key(c.i)
	}
}

func (c *cursor) posting() (key, val, raw []byte) { return c.r.posting(c.i) }

// mergeCursors streams the ascending union of the runs within
// [lo, hi), collapsing full-key duplicates, until fn returns false.
// Runs are few (memtable + under F segments per tier), so a linear
// min pick beats heap bookkeeping.
func mergeCursors(cs []cursor, lo, hi []byte, fn func(c *cursor) bool) {
	for i := range cs {
		c := &cs[i]
		if lo != nil {
			c.i = c.r.search(lo)
		}
		c.load()
	}
	var prev []byte
	for {
		min := -1
		for i := range cs {
			c := &cs[i]
			// Skip duplicates of the previously emitted key.
			for c.key != nil && prev != nil && bytes.Equal(c.key, prev) {
				c.i++
				c.load()
			}
			if c.key == nil {
				continue
			}
			if hi != nil && bytes.Compare(c.key, hi) >= 0 {
				c.key = nil // past the window; retire this run
				continue
			}
			if min < 0 || bytes.Compare(c.key, cs[min].key) < 0 {
				min = i
			}
		}
		if min < 0 {
			return
		}
		c := &cs[min]
		if !fn(c) {
			return
		}
		prev = c.key
		c.i++
		c.load()
	}
}

// Stats implements Index.
func (l *LSM) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	st := Stats{
		Backend:     "lsm",
		Certs:       l.mem.certs,
		Postings:    uint64(len(l.mem.offs)),
		MemPostings: len(l.mem.offs),
		Segments:    len(l.segments),
		Flushes:     l.flushes.Load(),
		Compactions: l.compactions.Load(),
	}
	if len(l.damaged) > 0 {
		st.Damaged = append(st.Damaged, l.damaged...)
	}
	for _, s := range l.segments {
		st.Certs += s.certs
		st.Postings += uint64(len(s.offs))
	}
	return st
}

// Close flushes the memtable (so a graceful shutdown loses nothing the
// fleet already checkpointed past) and stops the compactor.
func (l *LSM) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.flushLocked()
	l.mu.Unlock()
	close(l.compactKick)
	<-l.compactDone
	// Merge any tier the last flush filled: the store rests with none full.
	if cerr := l.compactTiers(); err == nil {
		err = cerr
	}
	return err
}
