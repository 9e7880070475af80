package ctlog

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
)

func newTestServer(t *testing.T) (*Log, *httptest.Server) {
	t.Helper()
	log, err := NewLog(9)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&Server{Log: log}).Handler())
	t.Cleanup(srv.Close)
	return log, srv
}

func TestAddChainAndGetSTH(t *testing.T) {
	_, srv := newTestServer(t)
	der := buildTestCert(t, false)
	body, _ := json.Marshal(map[string][]string{
		"chain": {base64.StdEncoding.EncodeToString(der)},
	})
	resp, err := http.Post(srv.URL+"/ct/v1/add-chain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add-chain: %s", resp.Status)
	}
	var sct struct {
		LogID     string `json:"id"`
		Signature string `json:"signature"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sct); err != nil {
		t.Fatal(err)
	}
	if sct.LogID == "" || sct.Signature == "" {
		t.Fatal("empty SCT fields")
	}
	cl := &Client{Base: srv.URL}
	size, root, err := cl.GetSTH(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if size != 1 || root == (Hash{}) {
		t.Fatalf("size %d root %x", size, root)
	}
}

func TestGetEntriesInclusiveRange(t *testing.T) {
	log, srv := newTestServer(t)
	der := buildTestCert(t, false)
	pre := buildTestCert(t, true)
	for i := 0; i < 3; i++ {
		if _, err := log.Add(der); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := log.Add(pre); err != nil {
		t.Fatal(err)
	}
	cl := &Client{Base: srv.URL}
	entries, err := cl.GetEntries(context.Background(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries %d", len(entries))
	}
	if !entries[2].Precert {
		t.Fatal("precert flag lost over HTTP")
	}
	if !bytes.Equal(entries[0].DER, der) {
		t.Fatal("DER mangled in transit")
	}
}

func TestGetProofByHash(t *testing.T) {
	log, srv := newTestServer(t)
	target := buildTestCert(t, false)
	for i := 0; i < 8; i++ {
		if _, err := log.Add(target); err != nil {
			t.Fatal(err)
		}
	}
	h := LeafHash(target)
	cl := &Client{Base: srv.URL}
	// All entries share the same DER here, so index 0 matches first.
	idx, proof, err := cl.GetProofByHash(context.Background(), h, 8)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := log.tree.Root(8)
	if !VerifyInclusion(h, idx, 8, proof, root) {
		t.Fatal("HTTP-delivered proof does not verify")
	}
}

// TestGetProofByHashConcurrentWithAddChain serves get-proof-by-hash
// while add-chain grows the tree; under -race it proves the handler
// reads the tree only under the log's lock. Every proof must verify
// against the STH it was requested for, at the DER's first index.
func TestGetProofByHashConcurrentWithAddChain(t *testing.T) {
	log, srv := newTestServer(t)
	certs := distinctCerts(t, 8)
	const rounds = 4
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for r := 0; r < rounds; r++ {
			for _, der := range certs {
				body, _ := json.Marshal(map[string][]string{"chain": {base64.StdEncoding.EncodeToString(der)}})
				resp, err := http.Post(srv.URL+"/ct/v1/add-chain", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("add-chain: %s", resp.Status)
					return
				}
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := &Client{Base: srv.URL}
			for j := g; ; j++ {
				select {
				case <-done:
					return
				default:
				}
				size, root, err := cl.GetSTH(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				first := j % len(certs)
				leaf := LeafHash(certs[first])
				idx, proof, err := cl.GetProofByHash(ctx, leaf, size)
				var re *RequestError
				if errors.As(err, &re) && re.Status == http.StatusNotFound {
					if first < size {
						t.Errorf("leaf %d not found at size %d", first, size)
						return
					}
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if idx != first || !VerifyInclusion(leaf, idx, size, proof, root) {
					t.Errorf("proof for leaf %d at size %d: index %d, or it does not verify", first, size, idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := log.Size(); got != rounds*len(certs) {
		t.Fatalf("log size %d, want %d", got, rounds*len(certs))
	}
}

func TestGetConsistencyOverHTTP(t *testing.T) {
	log, srv := newTestServer(t)
	der := buildTestCert(t, false)
	for i := 0; i < 6; i++ {
		if _, err := log.Add(der); err != nil {
			t.Fatal(err)
		}
	}
	cl := &Client{Base: srv.URL}
	proof, err := cl.GetConsistency(context.Background(), 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	oldRoot, _ := log.tree.Root(3)
	newRoot, _ := log.tree.Root(6)
	if !VerifyConsistency(3, 6, oldRoot, newRoot, proof) {
		t.Fatal("HTTP-delivered consistency proof does not verify")
	}
}

func TestBadRequests(t *testing.T) {
	log, srv := newTestServer(t)
	if _, err := log.Add(buildTestCert(t, false)); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/ct/v1/get-entries?start=a&end=b",
		"/ct/v1/get-entries?start=0",
		"/ct/v1/get-entries?end=0",
		"/ct/v1/get-entries",
		"/ct/v1/get-entries?start=-1&end=0",
		"/ct/v1/get-entries?start=3&end=1",
		"/ct/v1/get-entries?start=0&end=99",
		"/ct/v1/get-entries?start=5&end=9",
		"/ct/v1/get-proof-by-hash?tree_size=1&hash=!!!",
		"/ct/v1/get-proof-by-hash?tree_size=1",
		"/ct/v1/get-proof-by-hash?tree_size=x&hash=AAAA",
		"/ct/v1/get-sth-consistency?first=9&second=1",
		"/ct/v1/get-sth-consistency?first=a&second=b",
		"/ct/v1/get-sth-consistency?second=1",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s should fail", path)
		}
	}
	// add-chain rejects GET and garbage.
	resp, err := http.Get(srv.URL + "/ct/v1/add-chain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET add-chain should fail")
	}
	resp, err = http.Post(srv.URL+"/ct/v1/add-chain", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("garbage add-chain should fail")
	}
	// A proof request for a hash absent from the tree is a 404.
	resp, err = http.Get(srv.URL + "/ct/v1/get-proof-by-hash?tree_size=1&hash=" +
		url.QueryEscape(base64.StdEncoding.EncodeToString(make([]byte, 32))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown hash: got %s, want 404", resp.Status)
	}
	// The typed client surfaces the same 404 as an error, not a proof.
	cl := &Client{Base: srv.URL}
	if _, _, err := cl.GetProofByHash(context.Background(), Hash{}, 1); err == nil {
		t.Error("GetProofByHash for an unknown hash should fail")
	}
}

// TestGetEntriesBatchCap verifies the server clamps get-entries
// ranges to MaxGetEntries instead of serving unbounded responses.
func TestGetEntriesBatchCap(t *testing.T) {
	log, err := NewLog(11)
	if err != nil {
		t.Fatal(err)
	}
	der := buildTestCert(t, false)
	for i := 0; i < 10; i++ {
		if _, err := log.Add(der); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer((&Server{Log: log, MaxGetEntries: 3}).Handler())
	t.Cleanup(srv.Close)
	cl := &Client{Base: srv.URL}
	entries, err := cl.GetEntries(context.Background(), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("cap 3 but got %d entries", len(entries))
	}
	if entries[0].Index != 0 || entries[2].Index != 2 {
		t.Fatalf("clamped range should start at the requested start: %+v", entries)
	}
	// Within the cap the full inclusive range is served.
	entries, err = cl.GetEntries(context.Background(), 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Index != 4 {
		t.Fatalf("in-cap range: %+v", entries)
	}
}
