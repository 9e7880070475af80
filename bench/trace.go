package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path"
	"strconv"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder started; Parent is the ID of the span that caused
// this one (0 for a root), so the spans of one request share a chain.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     int32  `json:"id"`
}

// recorder collects the traced run's spans and boundary counters. It
// exists only in bench/: every span is taken around a call INTO a
// layer, never inside one. The span buffer is allocated once up front
// so recording costs two clock reads and one atomic add, and is written
// out only after the measured region ends.
type recorder struct {
	t0      time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64

	server map[string]*endpointStat // by ct/v1 endpoint name; fixed key set
	client endpointStat
}

type endpointStat struct {
	busyNS   atomic.Int64
	requests atomic.Int64
	bytes    atomic.Int64
}

// ctEndpoints are the ct/v1 routes a crawl can call.
var ctEndpoints = []string{"get-sth", "get-entries", "get-sth-consistency", "get-proof-by-hash"}

func newRecorder(capacity int) *recorder {
	r := &recorder{t0: time.Now(), spans: make([]span, capacity), server: map[string]*endpointStat{}}
	for _, e := range ctEndpoints {
		r.server[e] = &endpointStat{}
	}
	return r
}

// begin opens a span and returns its ID, or 0 when the buffer is full
// (the span is then counted as dropped and end is a no-op).
func (r *recorder) begin(name string, parent int32, start time.Time) int32 {
	i := r.next.Add(1)
	if int(i) > len(r.spans) {
		r.dropped.Add(1)
		return 0
	}
	r.spans[i-1] = span{Name: name, Start: start.Sub(r.t0).Nanoseconds(), Parent: parent, ID: int32(i)}
	return int32(i)
}

func (r *recorder) end(id int32, end time.Time) {
	if id > 0 {
		r.spans[id-1].End = end.Sub(r.t0).Nanoseconds()
	}
}

func (r *recorder) record(name string, parent int32, start, end time.Time) {
	r.end(r.begin(name, parent, start), end)
}

// recorded returns the spans written so far.
func (r *recorder) recorded() []span {
	n := int(r.next.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return r.spans[:n]
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(file string) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.recorded() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHeader carries the client span's ID to the server middleware, so
// the server-side span of a request names the client-side one as its
// parent.
const spanHeader = "X-Bench-Span"

// traceSwitch holds the recorder of the crawl in flight, or nil while
// an untraced one runs; the HTTP wrappers on both sides consult it per
// request, so one set of listeners serves traced and untraced crawls
// alike and the untraced path reads no clock.
type traceSwitch struct{ p atomic.Pointer[recorder] }

func (t *traceSwitch) set(r *recorder) { t.p.Store(r) }

// serverMiddleware times each ct/v1 request around the log's own
// handler: busy time, request and response-byte counts per endpoint.
func (t *traceSwitch) serverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r, endpoint := t.p.Load(), path.Base(req.URL.Path)
		var st *endpointStat
		if r != nil {
			st = r.server[endpoint]
		}
		if st == nil {
			next.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, req)
		end := time.Now()
		r.record("ctlog.server."+endpoint, int32(parent), start, end)
		st.busyNS.Add(end.Sub(start).Nanoseconds())
		st.requests.Add(1)
		st.bytes.Add(cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// clientTransport times each ctlog.Client attempt from request start
// to response-body close — the span the crawl worker is blocked for,
// JSON decode included, because the client closes the body only after
// decoding it.
type clientTransport struct {
	base http.RoundTripper
	t    *traceSwitch
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := c.t.p.Load()
	if r == nil {
		return c.base.RoundTrip(req)
	}
	start := time.Now()
	id := r.begin("ctlog.client."+path.Base(req.URL.Path), 0, start)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.finish(r, id, start, 0)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) { c.finish(r, id, start, n) }}
	return resp, nil
}

func (c *clientTransport) finish(r *recorder, id int32, start time.Time, bytes int64) {
	end := time.Now()
	r.end(id, end)
	r.client.busyNS.Add(end.Sub(start).Nanoseconds())
	r.client.requests.Add(1)
	r.client.bytes.Add(bytes)
}

type timedBody struct {
	io.ReadCloser
	n    int64
	done func(int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
	return err
}

// coverage is the share of a role's wall time its layer-table rows
// account for: the role's measured rows plus its named residual (idle
// for the consumer, other_s for a crawl worker), over its wall.
func coverage(rows []float64, residual, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	sum := residual
	for _, r := range rows {
		sum += r
	}
	return sum / wall
}
