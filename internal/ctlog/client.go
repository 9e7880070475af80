package ctlog

// A fault-tolerant RFC 6962 HTTP client for the Server, used by the
// monitor sync pipeline. Real monitors crawl logs over unreliable
// networks, so every request carries a context and timeout, response
// bodies are size-bounded, and retryable failures (5xx, transport
// errors, truncated bodies) are retried with capped exponential
// backoff and seeded jitter. Non-retryable failures — 4xx statuses,
// malformed JSON, bad base64, wrong content types — surface
// immediately so the caller can isolate the poisoned range instead of
// hammering the log.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Client defaults; zero-valued fields fall back to these.
const (
	DefaultMaxRetries   = 4
	DefaultTimeout      = 10 * time.Second
	DefaultMaxBodyBytes = 10 << 20
	defaultBaseBackoff  = 50 * time.Millisecond
	defaultMaxBackoff   = 2 * time.Second
)

// Client fetches from a CT log front end with retries and bounds.
// The zero value plus Base is usable; it adopts the defaults above.
// Safe for concurrent use.
type Client struct {
	Base string
	HTTP *http.Client

	// MaxRetries is the number of re-attempts after the first try for
	// retryable failures (negative disables retries).
	MaxRetries int
	// Timeout bounds each individual HTTP attempt.
	Timeout time.Duration
	// MaxBodyBytes bounds how much of any response body is read.
	MaxBodyBytes int64
	// BaseBackoff/MaxBackoff shape the capped exponential backoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed fixes the backoff jitter sequence for reproducible
	// tests; 0 means seed 1.
	JitterSeed int64
	// Sleep overrides the backoff sleep (tests inject a no-op to keep
	// chaos runs fast). The default honors context cancellation.
	Sleep func(context.Context, time.Duration) error

	// Breaker, when non-nil, gates every HTTP attempt with a circuit
	// breaker layered under the retry policy: rejected attempts fail
	// locally with ErrCircuitOpen (retryable, so backoff still paces
	// the loop) instead of touching the network. Nil disables breaking
	// — the zero-value Client behaves exactly as before.
	Breaker *Breaker

	// Obs, when non-nil, receives the client's instruments:
	// ctlog_requests_total{outcome}, ctlog_request_seconds{endpoint},
	// ctlog_retries_total, and (with a Breaker) ctlog_breaker_state
	// plus ctlog_breaker_rejected_total.
	Obs *obs.Registry
	// Tracer, when non-nil, records one span per logical request with
	// per-attempt and backoff child spans, so chaos tests can assert
	// retry → backoff → success causality.
	Tracer *obs.Tracer

	retries atomic.Int64

	metOnce sync.Once
	met     *clientMetrics

	rngMu   sync.Mutex
	rng     *rand.Rand
	rngOnce sync.Once
}

// clientMetrics caches the instrument handles so the request path pays
// one atomic op per sample, never a registry lookup.
type clientMetrics struct {
	reqOK          *obs.Counter
	reqRetryable   *obs.Counter
	reqFatal       *obs.Counter
	retries        *obs.Counter
	rejected       *obs.Counter // breaker rejections; not HTTP attempts
	latSTH         *obs.Histogram
	latEntries     *obs.Histogram
	latProof       *obs.Histogram
	latConsistency *obs.Histogram
	latOther       *obs.Histogram
}

func (m *clientMetrics) latency(endpoint string) *obs.Histogram {
	switch endpoint {
	case "get-sth":
		return m.latSTH
	case "get-entries":
		return m.latEntries
	case "get-proof-by-hash":
		return m.latProof
	case "get-sth-consistency":
		return m.latConsistency
	}
	return m.latOther
}

func (m *clientMetrics) outcome(o string) *obs.Counter {
	switch o {
	case "ok":
		return m.reqOK
	case "retryable":
		return m.reqRetryable
	}
	return m.reqFatal
}

// metrics resolves (once) the client's instruments; nil when Obs is
// unset, and every instrument method is nil-safe, so call sites stay
// unconditional.
func (c *Client) metrics() *clientMetrics {
	if c.Obs == nil {
		return nil
	}
	c.metOnce.Do(func() {
		r := c.Obs
		r.Help("ctlog_requests_total", "CT log HTTP attempts by outcome (ok, retryable, fatal).")
		r.Help("ctlog_request_seconds", "Per-attempt CT log HTTP latency by endpoint.")
		r.Help("ctlog_retries_total", "Retry attempts performed after retryable failures.")
		r.Help("ctlog_breaker_rejected_total", "Attempts rejected locally by the open circuit breaker.")
		c.met = &clientMetrics{
			reqOK:          r.Counter("ctlog_requests_total", "outcome", "ok"),
			reqRetryable:   r.Counter("ctlog_requests_total", "outcome", "retryable"),
			reqFatal:       r.Counter("ctlog_requests_total", "outcome", "fatal"),
			retries:        r.Counter("ctlog_retries_total"),
			rejected:       r.Counter("ctlog_breaker_rejected_total"),
			latSTH:         r.Histogram("ctlog_request_seconds", nil, "endpoint", "get-sth"),
			latEntries:     r.Histogram("ctlog_request_seconds", nil, "endpoint", "get-entries"),
			latProof:       r.Histogram("ctlog_request_seconds", nil, "endpoint", "get-proof-by-hash"),
			latConsistency: r.Histogram("ctlog_request_seconds", nil, "endpoint", "get-sth-consistency"),
			latOther:       r.Histogram("ctlog_request_seconds", nil, "endpoint", "other"),
		}
		c.Breaker.instrument(r)
	})
	return c.met
}

// endpointOf classifies a request path into a low-cardinality label —
// never the raw path, whose query ranges would explode the label space.
func endpointOf(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	switch {
	case strings.HasSuffix(path, "/get-sth"):
		return "get-sth"
	case strings.HasSuffix(path, "/get-entries"):
		return "get-entries"
	case strings.HasSuffix(path, "/get-proof-by-hash"):
		return "get-proof-by-hash"
	case strings.HasSuffix(path, "/get-sth-consistency"):
		return "get-sth-consistency"
	}
	return "other"
}

// outcomeOf classifies an attempt error for metrics and span attrs.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case IsRetryable(err):
		return "retryable"
	}
	return "fatal"
}

// Retries returns the cumulative number of retry attempts the client
// has performed; callers snapshot it around a crawl to attribute
// retries to that crawl.
func (c *Client) Retries() int64 { return c.retries.Load() }

// RequestError describes an HTTP-level failure and whether retrying
// could help.
type RequestError struct {
	Path      string
	Status    int // 0 when the failure happened below HTTP
	Err       error
	Retryable bool
}

func (e *RequestError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("ctlog: %s returned %d: %v", e.Path, e.Status, e.Err)
	}
	return fmt.Sprintf("ctlog: %s: %v", e.Path, e.Err)
}

func (e *RequestError) Unwrap() error { return e.Err }

// IsRetryable reports whether err is a request failure that a retry
// might cure (5xx, transport errors, truncation) as opposed to one
// that is deterministic (4xx, malformed payloads).
func IsRetryable(err error) bool {
	var re *RequestError
	if errors.As(err, &re) {
		return re.Retryable
	}
	return false
}

// GetSTH fetches the current tree head.
func (c *Client) GetSTH(ctx context.Context) (size int, root Hash, err error) {
	var resp sthResponse
	if err = c.getJSON(ctx, "/ct/v1/get-sth", &resp); err != nil {
		return 0, Hash{}, err
	}
	raw, err := base64.StdEncoding.DecodeString(resp.SHA256RootHash)
	if err != nil || len(raw) != 32 {
		return 0, Hash{}, &RequestError{Path: "/ct/v1/get-sth", Err: fmt.Errorf("bad root hash")}
	}
	copy(root[:], raw)
	return resp.TreeSize, root, nil
}

// GetEntries fetches entries [start, end] inclusive. The server may
// clamp the range to its batch cap, so fewer entries than requested
// can come back; callers must advance by what they received.
func (c *Client) GetEntries(ctx context.Context, start, end int) ([]Entry, error) {
	path := fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", start, end)
	var out []Entry
	var direct bool
	var resp entriesResponse
	err := c.get(ctx, path, func(body []byte) error {
		if out, direct = decodeEntries(body); direct {
			return nil
		}
		return json.Unmarshal(body, &resp)
	})
	if err != nil {
		return nil, err
	}
	if direct {
		return out, nil
	}
	// Any other layout: whitespace, another key order, unknown keys
	// such as RFC 6962's extra_data, escapes. The bodies accepted, the
	// entries returned and every error text are those of encoding/json.
	out = make([]Entry, 0, len(resp.Entries))
	for _, e := range resp.Entries {
		der, err := base64.StdEncoding.DecodeString(e.LeafInput)
		if err != nil {
			return nil, &RequestError{Path: path, Err: fmt.Errorf("entry %d: bad leaf base64: %v", e.Index, err)}
		}
		out = append(out, Entry{Index: e.Index, DER: der, Precert: e.Precert})
	}
	return out, nil
}

// decodeEntries reads a get-entries body laid out exactly as
// appendEntries writes it: no whitespace, the four keys in order,
// numbers of 1 to 18 digits with no sign or leading zero (all fit an
// int64), unescaped base64 decoded into one slice per entry, so that a
// retained entry does not keep its batch alive. ok is false at the
// first byte outside that layout, and the caller falls back to
// encoding/json, which returns the same entries wherever ok is true.
func decodeEntries(body []byte) (out []Entry, ok bool) {
	if string(body) == entriesNull {
		return []Entry{}, true
	}
	rest, ok := body, true
	lit := func(s string) {
		if ok = ok && bytes.HasPrefix(rest, []byte(s)); ok {
			rest = rest[len(s):]
		}
	}
	number := func() (n int64) {
		i := 0
		for ; i < len(rest) && i <= 18 && rest[i]-'0' <= 9; i++ {
			n = n*10 + int64(rest[i]-'0')
		}
		ok = ok && i > 0 && i <= 18 && (i == 1 || rest[0] != '0')
		rest = rest[i:]
		return n
	}
	lit(entriesOpen)
	// Base64 holds no brace, so each entry of a body that decodes
	// opens one; no entry is shorter than minEntry, which bounds the
	// guess for bodies that do not.
	const minEntry = entryIndex + "0" + entryTime + "0" + entryLeaf + entryPrecert + "true}"
	out = make([]Entry, 0, min(bytes.Count(rest, []byte("{")), len(rest)/len(minEntry)))
	for ok && string(rest) != entriesClose {
		if len(out) > 0 {
			lit(",")
		}
		lit(entryIndex)
		index := number()
		lit(entryTime)
		number()
		lit(entryLeaf)
		end := bytes.IndexByte(rest, '"')
		if !ok || end < 0 || int64(int(index)) != index {
			return nil, false
		}
		var der []byte
		der, ok = decodeLeaf(rest[:end])
		rest = rest[end:]
		lit(entryPrecert)
		precert := bytes.HasPrefix(rest, []byte("t"))
		lit(strconv.FormatBool(precert))
		lit("}")
		out = append(out, Entry{Index: int(index), DER: der, Precert: precert})
	}
	if !ok {
		return nil, false
	}
	return out, true
}

// decodeLeaf decodes one leaf_input into a slice of exactly its
// decoded length. base64's Decode skips raw '\r' and '\n', which JSON
// forbids in a string; skipping any leaves the output three or more
// bytes short, so a full-length result proves there were none.
func decodeLeaf(s []byte) ([]byte, bool) {
	if len(s)%4 != 0 {
		return nil, false
	}
	n := len(s) / 4 * 3
	for i := len(s) - 1; i >= len(s)-2 && i >= 0 && s[i] == '='; i-- {
		n--
	}
	der := make([]byte, n)
	m, err := base64.StdEncoding.Decode(der, s)
	return der, err == nil && m == n
}

// GetProofByHash fetches the inclusion proof for the entry whose RFC
// 6962 leaf hash is leaf, under the tree of size treeSize, returning
// the entry's index and the audit path. It shares the retry policy,
// breaker gating, per-endpoint metrics, and request spans with the
// other accessors. A log that does not contain the leaf answers 404,
// which surfaces as a non-retryable *RequestError — for an auditor
// that status is evidence, not noise.
func (c *Client) GetProofByHash(ctx context.Context, leaf Hash, treeSize int) (int, []Hash, error) {
	path := fmt.Sprintf("/ct/v1/get-proof-by-hash?hash=%s&tree_size=%d",
		url.QueryEscape(base64.StdEncoding.EncodeToString(leaf[:])), treeSize)
	var resp proofResponse
	if err := c.getJSON(ctx, path, &resp); err != nil {
		return 0, nil, err
	}
	if resp.LeafIndex < 0 || resp.LeafIndex >= treeSize {
		return 0, nil, &RequestError{Path: path, Err: fmt.Errorf("leaf index %d outside tree of size %d", resp.LeafIndex, treeSize)}
	}
	nodes, err := decodeProofNodes(path, resp.AuditPath)
	if err != nil {
		return 0, nil, err
	}
	return resp.LeafIndex, nodes, nil
}

// GetConsistency fetches the consistency proof between tree sizes
// first and second, with the same fault handling as GetProofByHash.
func (c *Client) GetConsistency(ctx context.Context, first, second int) ([]Hash, error) {
	path := fmt.Sprintf("/ct/v1/get-sth-consistency?first=%d&second=%d", first, second)
	var resp consistencyResponse
	if err := c.getJSON(ctx, path, &resp); err != nil {
		return nil, err
	}
	return decodeProofNodes(path, resp.Consistency)
}

// decodeProofNodes decodes a base64 proof-node vector, rejecting any
// node that is not exactly one SHA-256 hash. Malformed nodes are
// deterministic for a given response, so the error is non-retryable.
func decodeProofNodes(path string, in []string) ([]Hash, error) {
	out := make([]Hash, len(in))
	for i, s := range in {
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil || len(raw) != sha256.Size {
			return nil, &RequestError{Path: path, Err: fmt.Errorf("proof node %d: not a sha256 hash", i)}
		}
		copy(out[i][:], raw)
	}
	return out, nil
}

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries > 0:
		return c.MaxRetries
	case c.MaxRetries < 0:
		return 0
	}
	return DefaultMaxRetries
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

func (c *Client) maxBody() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

// backoff returns the capped exponential delay for attempt (0-based)
// with ±50% deterministic jitter.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.BaseBackoff
	if base <= 0 {
		base = defaultBaseBackoff
	}
	maxd := c.MaxBackoff
	if maxd <= 0 {
		maxd = defaultMaxBackoff
	}
	d := base << uint(attempt)
	if d > maxd || d <= 0 {
		d = maxd
	}
	c.rngOnce.Do(func() {
		seed := c.JitterSeed
		if seed == 0 {
			seed = 1
		}
		c.rng = rand.New(rand.NewSource(seed))
	})
	c.rngMu.Lock()
	jitter := c.rng.Float64()
	c.rngMu.Unlock()
	return d/2 + time.Duration(jitter*float64(d/2))
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// getJSON performs one logical request and decodes its body into v
// with encoding/json.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	return c.get(ctx, path, func(body []byte) error { return json.Unmarshal(body, v) })
}

// get performs one logical request with the retry policy, recording
// per-attempt metrics and (when a tracer is attached) a request span
// with attempt/backoff children. decode runs on the body of the one
// attempt that reads it whole; its error is non-retryable.
func (c *Client) get(ctx context.Context, path string, decode func([]byte) error) (err error) {
	met := c.metrics()
	endpoint := endpointOf(path)
	ctx, span := c.Tracer.Start(ctx, "ctlog."+endpoint)
	span.SetAttr("path", path)
	defer func() {
		span.SetAttr("outcome", outcomeOf(err))
		span.End()
	}()
	for attempt := 0; ; attempt++ {
		if c.Breaker != nil && !c.Breaker.Allow() {
			// Rejected locally: no network attempt, no latency sample,
			// no ctlog_requests_total — only the rejection counter, so
			// attempt accounting still reflects real HTTP traffic.
			err = breakerRejection(path)
			if met != nil {
				met.rejected.Inc()
			}
			_, rsp := c.Tracer.Start(ctx, "breaker-reject")
			rsp.End()
		} else {
			_, asp := c.Tracer.Start(ctx, "attempt")
			var start time.Time
			if met != nil {
				start = time.Now()
			}
			err = c.doOnce(ctx, path, decode)
			c.Breaker.Record(err)
			if met != nil {
				met.latency(endpoint).Observe(time.Since(start).Seconds())
				met.outcome(outcomeOf(err)).Inc()
			}
			asp.SetAttr("outcome", outcomeOf(err))
			asp.End()
		}
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		if !IsRetryable(err) || attempt >= c.maxRetries() {
			return err
		}
		c.retries.Add(1)
		if met != nil {
			met.retries.Inc()
		}
		_, bsp := c.Tracer.Start(ctx, "backoff")
		serr := c.sleep(ctx, c.backoff(attempt))
		bsp.End()
		if serr != nil {
			return serr
		}
	}
}

// doOnce performs a single HTTP attempt and classifies any failure.
func (c *Client) doOnce(ctx context.Context, path string, decode func([]byte) error) error {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	rctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return &RequestError{Path: path, Err: err}
	}
	resp, err := httpc.Do(req)
	if err != nil {
		// Transport-level failures (resets, drops, timeouts) are
		// retryable unless the caller's context is gone.
		return &RequestError{Path: path, Err: err, Retryable: ctx.Err() == nil}
	}
	defer func() {
		// Drain so the keep-alive connection is reusable, then close.
		io.Copy(io.Discard, io.LimitReader(resp.Body, c.maxBody()))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return &RequestError{
			Path:      path,
			Status:    resp.StatusCode,
			Err:       fmt.Errorf("%s", resp.Status),
			Retryable: resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests,
		}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || !strings.Contains(mt, "json") {
			return &RequestError{Path: path, Status: resp.StatusCode, Err: fmt.Errorf("unexpected content type %q", ct)}
		}
	}
	limit := c.maxBody()
	body, err := readBody(resp.Body, resp.ContentLength, limit)
	if err != nil {
		// A short read is indistinguishable from a torn connection.
		return &RequestError{Path: path, Err: fmt.Errorf("reading body: %w", err), Retryable: ctx.Err() == nil}
	}
	if int64(len(body)) > limit {
		return &RequestError{Path: path, Err: fmt.Errorf("response body exceeds %d byte limit", limit)}
	}
	if err := decode(body); err != nil {
		// Malformed JSON is deterministic for a given response; the
		// monitor's bisection layer decides whether to refetch.
		return &RequestError{Path: path, Err: fmt.Errorf("decoding body: %w", err)}
	}
	return nil
}

// readBody reads r up to limit+1 bytes, one past the limit so that an
// oversized body shows, into a buffer pre-sized from the declared
// Content-Length with a byte to spare for the EOF: at least
// io.ReadAll's 512 bytes, at most limit+1 on the word of a header.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	b := make([]byte, 0, min(max(declared, 511), limit)+1)
	r = io.LimitReader(r, limit+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
