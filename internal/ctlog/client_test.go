package ctlog

import (
	"context"
	"encoding/base64"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastClient returns a client whose backoff sleeps are no-ops so
// retry tests stay instant.
func fastClient(base string) *Client {
	return &Client{
		Base:  base,
		Sleep: func(context.Context, time.Duration) error { return nil },
	}
}

func TestClientRetriesServerErrors(t *testing.T) {
	var calls atomic.Int64
	log, err := NewLog(21)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Add(buildTestCert(t, false)); err != nil {
		t.Fatal(err)
	}
	inner := (&Server{Log: log}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Fail the first two attempts, then serve normally.
		if calls.Add(1) <= 2 {
			http.Error(w, "try later", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cl := fastClient(srv.URL)
	size, _, err := cl.GetSTH(context.Background())
	if err != nil {
		t.Fatalf("GetSTH should survive two 503s: %v", err)
	}
	if size != 1 {
		t.Fatalf("size %d", size)
	}
	if got := cl.Retries(); got != 2 {
		t.Fatalf("retries counter %d, want 2", got)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no such range", http.StatusBadRequest)
	}))
	defer srv.Close()
	cl := fastClient(srv.URL)
	_, err := cl.GetEntries(context.Background(), 0, 10)
	if err == nil {
		t.Fatal("want error")
	}
	if IsRetryable(err) {
		t.Fatalf("4xx must be non-retryable: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("4xx retried: %d calls", n)
	}
}

func TestClientRetryExhaustion(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	cl := fastClient(srv.URL)
	cl.MaxRetries = 3
	_, _, err := cl.GetSTH(context.Background())
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	if !IsRetryable(err) {
		t.Fatalf("5xx should classify retryable: %v", err)
	}
	if n := calls.Load(); n != 4 { // 1 try + 3 retries
		t.Fatalf("%d calls, want 4", n)
	}
}

func TestClientRejectsMalformedJSON(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"tree_size": 5,`)
	}))
	defer srv.Close()
	cl := fastClient(srv.URL)
	_, _, err := cl.GetSTH(context.Background())
	if err == nil {
		t.Fatal("want decode error")
	}
	if IsRetryable(err) {
		t.Fatalf("malformed JSON must fail immediately: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("malformed JSON retried: %d calls", n)
	}
}

func TestClientRejectsWrongContentType(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, `{"tree_size": 5}`)
	}))
	defer srv.Close()
	cl := fastClient(srv.URL)
	if _, _, err := cl.GetSTH(context.Background()); err == nil || !strings.Contains(err.Error(), "content type") {
		t.Fatalf("want content-type error, got %v", err)
	}
}

func TestClientBoundsResponseBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"entries":[{"index":0,"leaf_input":%q}]}`,
			base64.StdEncoding.EncodeToString(make([]byte, 4096)))
	}))
	defer srv.Close()
	cl := fastClient(srv.URL)
	cl.MaxBodyBytes = 512
	_, err := cl.GetEntries(context.Background(), 0, 0)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("want body-limit error, got %v", err)
	}
	if IsRetryable(err) {
		t.Fatal("oversized body is not retryable")
	}
}

// TestClientBodyLimitUnderContentLength: the body buffer is pre-sized
// from Content-Length, and neither a declared length past the limit
// nor one longer than the body changes how the read ends: an oversized
// body is not retried, a short one is.
func TestClientBodyLimitUnderContentLength(t *testing.T) {
	for _, tc := range []struct {
		name      string
		declared  int64
		sent      int
		want      string
		retryable bool
		calls     int64
	}{
		{"declared and sent past the limit", math.MaxInt64, 4096, "exceeds 512 byte limit", false, 1},
		{"declared longer than sent", 400, 100, "reading body", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Content-Length", strconv.FormatInt(tc.declared, 10))
				w.Write([]byte(`{"entries":[{"index":0,"leaf_input":"` + strings.Repeat("A", tc.sent)))
			}))
			defer srv.Close()
			cl := fastClient(srv.URL)
			cl.MaxBodyBytes = 512
			cl.MaxRetries = 1
			_, err := cl.GetEntries(context.Background(), 0, 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) || IsRetryable(err) != tc.retryable {
				t.Fatalf("got %v, want a retryable=%v error containing %q", err, tc.retryable, tc.want)
			}
			if calls.Load() != tc.calls {
				t.Fatalf("%d calls, want %d", calls.Load(), tc.calls)
			}
		})
	}
}

// TestReadBodyPresize: the buffer is never sized past limit+1 on a
// header's word, and an honest body fits it with no regrowth.
func TestReadBodyPresize(t *testing.T) {
	for _, tc := range []struct {
		declared, limit int64
		body, wantCap   int
	}{
		{math.MaxInt64, 512, 10, 513},
		{1 << 40, 512, 10, 513},
		{100, 512, 100, 512},
		{1000, 1 << 20, 1000, 1001},
		{-1, 1 << 20, 10, 512},
	} {
		b, err := readBody(strings.NewReader(strings.Repeat("x", tc.body)), tc.declared, tc.limit)
		if err != nil || len(b) != tc.body || cap(b) != tc.wantCap {
			t.Errorf("readBody(%d bytes, declared %d, limit %d) = %d bytes, cap %d, %v; want cap %d",
				tc.body, tc.declared, tc.limit, len(b), cap(b), err, tc.wantCap)
		}
	}
}

func TestClientRejectsBadLeafBase64(t *testing.T) {
	// The second body is laid out as the Server writes it, so the
	// direct decoder reads up to the bad base64 before declining.
	for _, body := range []string{
		`{"entries":[{"index":3,"leaf_input":"!!not-base64!!"}]}`,
		`{"entries":[{"index":2,"timestamp":1,"leaf_input":"QQ==","precert":false},` +
			`{"index":3,"timestamp":1,"leaf_input":"!!not-base64!!!!","precert":false}]}` + "\n",
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, body)
		}))
		cl := fastClient(srv.URL)
		_, err := cl.GetEntries(context.Background(), 3, 3)
		srv.Close()
		if err == nil || IsRetryable(err) {
			t.Fatalf("bad base64 must be a non-retryable error, got %v", err)
		}
		if !strings.Contains(err.Error(), "entry 3") {
			t.Fatalf("error should name the poisoned entry: %v", err)
		}
	}
}

func TestClientHonorsContextCancel(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer srv.Close()
	defer close(block)
	cl := fastClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, _, err := cl.GetSTH(ctx); err == nil {
		t.Fatal("want cancellation error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestClientPerRequestTimeout(t *testing.T) {
	block := make(chan struct{})
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First attempt hangs past the per-request timeout.
			select {
			case <-block:
			case <-r.Context().Done():
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"tree_size":0,"sha256_root_hash":"`+
			base64.StdEncoding.EncodeToString(make([]byte, 32))+`"}`)
	}))
	defer srv.Close()
	defer close(block)
	cl := fastClient(srv.URL)
	cl.Timeout = 50 * time.Millisecond
	size, _, err := cl.GetSTH(context.Background())
	if err != nil {
		t.Fatalf("timeout should trigger a retry that succeeds: %v", err)
	}
	if size != 0 || calls.Load() != 2 {
		t.Fatalf("size %d calls %d", size, calls.Load())
	}
}
