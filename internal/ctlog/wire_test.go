package ctlog

// The get-entries wire codec against encoding/json. The Server writes
// the body by hand and the Client reads that exact layout directly,
// falling back to encoding/json for any other; these tests hold both
// ends to what encoding/json writes and reads.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// jsonEntriesBody is the body the Server wrote before the direct
// codec: the entriesResponse through a json.Encoder.
func jsonEntriesBody(t testing.TB, entries []Entry) []byte {
	t.Helper()
	resp := entriesResponse{}
	for _, e := range entries {
		resp.Entries = append(resp.Entries, entryJSON{
			Index:     e.Index,
			Timestamp: e.Timestamp.UnixMilli(),
			LeafInput: base64.StdEncoding.EncodeToString(e.DER),
			Precert:   e.Precert,
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeEntriesJSON is what GetEntries runs when decodeEntries
// declines: json.Unmarshal, then base64 per entry.
func decodeEntriesJSON(body []byte) ([]Entry, error) {
	var resp entriesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(resp.Entries))
	for _, e := range resp.Entries {
		der, err := base64.StdEncoding.DecodeString(e.LeafInput)
		if err != nil {
			return nil, err
		}
		out = append(out, Entry{Index: e.Index, DER: der, Precert: e.Precert})
	}
	return out, nil
}

// randomEntries draws a batch with random indices, timestamps, DER
// lengths below maxDER (empty included) and precert flags.
func randomEntries(rng *rand.Rand, n, maxDER int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		der := make([]byte, rng.Intn(maxDER))
		rng.Read(der)
		out[i] = Entry{
			Index:     int(rng.Int63n(1 << uint(rng.Intn(59)+1))),
			Timestamp: time.UnixMilli(rng.Int63n(4e12)),
			DER:       der,
			Precert:   rng.Intn(2) == 0,
		}
	}
	return out
}

// sameEntries compares what a client returns of an entry: its index,
// DER and precert flag (the wire's timestamp is not kept).
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Precert != b[i].Precert || !bytes.Equal(a[i].DER, b[i].DER) {
			return false
		}
	}
	return true
}

func TestGetEntriesBodyMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	batches := [][]Entry{
		nil,
		{{Index: 0, Timestamp: time.UnixMilli(0), DER: []byte{}}},
		{{Index: 7, Timestamp: time.UnixMilli(1), DER: []byte{0xff, 0xfe}, Precert: true}},
		{{Index: math.MaxInt, Timestamp: time.UnixMilli(math.MaxInt64), DER: []byte("x")}},
		{{Index: 3, Timestamp: time.Time{}, DER: []byte("negative timestamp")}},
	}
	for i := 0; i < 50; i++ {
		batches = append(batches, randomEntries(rng, rng.Intn(64)+1, 300))
	}
	for i, entries := range batches {
		want := jsonEntriesBody(t, entries)
		got := appendEntries(make([]byte, 0, entriesBodyLen(entries)), entries)
		if !bytes.Equal(got, want) {
			t.Fatalf("batch %d: body\n%s\nwant\n%s", i, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("batch %d: sized %d bytes, wrote %d", i, cap(got), len(got))
		}
		// The client reads every body the server writes directly, but
		// for negative indices and timestamps and those past 18
		// digits, which it leaves to encoding/json.
		out, ok := decodeEntries(got)
		direct := true
		for _, e := range entries {
			for _, n := range []int64{int64(e.Index), e.Timestamp.UnixMilli()} {
				direct = direct && n >= 0 && n < 1e18
			}
		}
		if ok != direct {
			t.Fatalf("batch %d: direct decode ok = %v, want %v", i, ok, direct)
		}
		if ok && !sameEntries(out, entries) {
			t.Fatalf("batch %d: direct decode %v, want %v", i, out, entries)
		}
	}

	// Over HTTP: the same bytes, with a Content-Length that matches.
	log, srv := newTestServer(t)
	for _, e := range randomEntries(rng, 100, 300) {
		if _, err := log.AddParsed(e.DER, e.Precert); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]int{{0, 0}, {0, 63}, {40, 99}, {99, 99}} {
		resp, err := http.Get(srv.URL + "/ct/v1/get-entries?start=" + strconv.Itoa(r[0]) + "&end=" + strconv.Itoa(r[1]))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := log.GetEntries(r[0], r[1]+1)
		if err != nil {
			t.Fatal(err)
		}
		if want := jsonEntriesBody(t, entries); !bytes.Equal(body, want) {
			t.Fatalf("range %v: body differs from the json.Encoder body", r)
		}
		if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("range %v: Content-Length %d for %d bytes, Content-Type %q",
				r, resp.ContentLength, len(body), resp.Header.Get("Content-Type"))
		}
	}
}

// wireSeeds returns bodies the client meets: the server's own, those
// faultinject poisons, corrupts and truncates, and hand-made variants
// that encoding/json accepts but the direct decoder must leave to it.
func wireSeeds(t testing.TB) [][]byte {
	t.Helper()
	// Short bodies: the fuzzer's minimizer is slow on long ones.
	rng := rand.New(rand.NewSource(51))
	var seeds [][]byte
	for i := 0; i < 4; i++ {
		seeds = append(seeds, appendEntries(nil, randomEntries(rng, rng.Intn(3)+1, 24)))
	}
	seeds = append(seeds, appendEntries(nil, nil))

	// faultinject's bodies, fetched through its Transport.
	log, err := NewLog(52)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range randomEntries(rng, 6, 24) {
		if _, err := log.AddParsed(e.DER, e.Precert); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer((&Server{Log: log}).Handler())
	defer srv.Close()
	for _, cfg := range []faultinject.Config{
		{PoisonEntries: map[int]bool{1: true, 4: true}},
		{Rate: 1, Kinds: []faultinject.Kind{faultinject.CorruptJSON}},
		{Rate: 1, Kinds: []faultinject.Kind{faultinject.Truncate}},
	} {
		hc := &http.Client{Transport: faultinject.New(cfg, nil)}
		resp, err := hc.Get(srv.URL + "/ct/v1/get-entries?start=0&end=5")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body) // a truncated body ends in an error
		resp.Body.Close()
		seeds = append(seeds, body)
	}

	one := func(index, ts, leaf, precert string) []byte {
		return []byte(`{"entries":[{"index":` + index + `,"timestamp":` + ts +
			`,"leaf_input":"` + leaf + `","precert":` + precert + "}]}\n")
	}
	seeds = append(seeds,
		one("1", "2", "QUJD\nREVG", "false"),
		one("1", "2", "QUJD\r\n\r\nREVG", "true"),
		one("1", "2", "QUJDREVG\r", "false"),
		one("1", "2", `\/\/\/\/`, "false"),
		one("1", "2", "////", "false"),
		one("-0", "2", "QQ==", "false"),
		one("1", "-0", "QQ==", "false"),
		one("007", "2", "QQ==", "false"),
		one("1", "00", "QQ==", "false"),
		one("1234567890123456789", "2", "QQ==", "false"),
		one("123456789012345678", "1234567890123456789", "QQ==", "false"),
		one("1.0", "2", "QQ==", "false"),
		one("1", "2e3", "QQ==", "false"),
		one("1", "2", "QQ=", "false"),
		one("1", "2", "Q===", "false"),
		one("1", "2", "QQ==QQ==", "false"),
		[]byte(`{"entries":[{"timestamp":2,"index":1,"leaf_input":"QQ==","precert":false}]}`),
		[]byte(`{"entries":[{"index":1,"timestamp":2,"leaf_input":"QQ==","precert":false,"extra_data":"QQ=="}]}`),
		[]byte(`{"entries":[{"index":1,"timestamp":2,"leaf_input":"QQ==","precert":false}]}`),
		[]byte(`{"entries":[]}`+"\n"),
		[]byte(`{"entries":null}`),
	)
	padded, err := json.MarshalIndent(entriesResponse{Entries: []entryJSON{{Index: 1, Timestamp: 2, LeafInput: "QQ=="}}}, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return append(seeds, padded)
}

// FuzzDecodeEntries holds the direct decoder to its fallback: for any
// body it accepts, json.Unmarshal and base64 must accept it too and
// return the same entries; a body it declines yields no entries.
func FuzzDecodeEntries(f *testing.F) {
	for _, s := range wireSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeEntries(body)
		if !ok {
			if got != nil {
				t.Fatalf("declined %q but returned %d entries", body, len(got))
			}
			return
		}
		want, err := decodeEntriesJSON(body)
		if err != nil {
			t.Fatalf("direct decode accepted %q, which encoding/json rejects: %v", body, err)
		}
		if !sameEntries(got, want) || got == nil {
			t.Fatalf("direct decode of %q = %v, want %v", body, got, want)
		}
	})
}
