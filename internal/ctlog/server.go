package ctlog

// An RFC 6962-flavoured HTTP front end for the log: add-chain, get-sth,
// get-entries, get-proof-by-hash, get-sth-consistency. Monitors in
// internal/monitor sync through this API, mirroring how real monitors
// crawl logs.

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// DefaultMaxGetEntries is the get-entries batch cap applied when
// Server.MaxGetEntries is zero. Real RFC 6962 logs cap responses
// (commonly 256–1024 entries) and clients must tolerate short reads.
const DefaultMaxGetEntries = 256

// DefaultMaxRequestBytes bounds add-chain request bodies when
// Server.MaxRequestBytes is zero.
const DefaultMaxRequestBytes = 1 << 20

// Server exposes a Log over HTTP.
type Server struct {
	Log *Log
	// MaxGetEntries caps how many entries one get-entries response may
	// carry; requests for larger ranges are clamped, not rejected.
	// Zero means DefaultMaxGetEntries.
	MaxGetEntries int
	// MaxInFlight caps concurrently executing ct/v1 requests; excess
	// sheds with 503 + Retry-After. Zero means unlimited.
	MaxInFlight int
	// RateLimit is the sustained ct/v1 requests/second budget enforced
	// by a token bucket (burst RateBurst); excess sheds with 429 +
	// Retry-After. Zero means unlimited.
	RateLimit float64
	// RateBurst is the token-bucket capacity; zero defaults to
	// max(1, ceil(RateLimit)).
	RateBurst int
	// MaxRequestBytes bounds request bodies (add-chain); zero means
	// DefaultMaxRequestBytes. Oversized bodies get 413.
	MaxRequestBytes int64
	// Obs, when non-nil, adds server-side request accounting
	// (ctlog_server_requests_total, ctlog_server_request_seconds,
	// ctlog_server_shed_total{reason}) and mounts the registry's
	// exposition endpoints (/metrics, /debug/vars, /debug/pprof/) on
	// the handler.
	Obs *obs.Registry
	// Journal, when non-nil, receives a serve.shed event for every shed
	// decision the limiter makes, labeled with Name.
	Journal *obs.Journal
	// Name labels this server's journal events (default "ctlog").
	Name string
}

func (s *Server) maxGetEntries() int {
	if s.MaxGetEntries > 0 {
		return s.MaxGetEntries
	}
	return DefaultMaxGetEntries
}

func (s *Server) maxRequestBytes() int64 {
	if s.MaxRequestBytes > 0 {
		return s.MaxRequestBytes
	}
	return DefaultMaxRequestBytes
}

// Handler returns the HTTP handler with the ct/v1 routes. With Obs
// set, every route is counted and timed, and the observability
// endpoints are mounted alongside the log API. With MaxInFlight or
// RateLimit set, the ct/v1 routes (but not the exposition endpoints)
// sit behind a shedding serve.Limiter; sheds land OUTSIDE the
// per-endpoint request accounting, in ctlog_server_shed_total{reason}.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "/ct/v1/add-chain", "add-chain", s.addChain)
	s.route(mux, "/ct/v1/get-sth", "get-sth", s.getSTH)
	s.route(mux, "/ct/v1/get-entries", "get-entries", s.getEntries)
	s.route(mux, "/ct/v1/get-proof-by-hash", "get-proof-by-hash", s.getProof)
	s.route(mux, "/ct/v1/get-sth-consistency", "get-sth-consistency", s.getConsistency)
	var api http.Handler = mux
	if s.MaxInFlight > 0 || s.RateLimit > 0 {
		name := s.Name
		if name == "" {
			name = "ctlog"
		}
		lim := &serve.Limiter{
			MaxInFlight: s.MaxInFlight,
			Rate:        s.RateLimit,
			Burst:       s.RateBurst,
			OnShed:      s.shedObserver(),
			Journal:     s.Journal,
			Name:        name,
		}
		api = lim.Wrap(mux)
	}
	if s.Obs == nil {
		return api
	}
	// Exposition endpoints bypass the limiter: an overloaded log must
	// still answer its scrapes.
	outer := http.NewServeMux()
	h := s.Obs.Handler()
	outer.Handle("/metrics", h)
	outer.Handle("/debug/", h)
	outer.Handle("/", api)
	return outer
}

// shedObserver resolves the shed counters once; nil (a no-op observer)
// when Obs is unset.
func (s *Server) shedObserver() func(string) {
	if s.Obs == nil {
		return nil
	}
	s.Obs.Help("ctlog_server_shed_total", "Requests shed by overload protection, by reason (inflight, rate).")
	inflight := s.Obs.Counter("ctlog_server_shed_total", "reason", serve.ShedInFlight)
	rate := s.Obs.Counter("ctlog_server_shed_total", "reason", serve.ShedRate)
	return func(reason string) {
		switch reason {
		case serve.ShedInFlight:
			inflight.Inc()
		case serve.ShedRate:
			rate.Inc()
		}
	}
}

// route mounts one log endpoint, instrumented when Obs is set.
func (s *Server) route(mux *http.ServeMux, path, endpoint string, h http.HandlerFunc) {
	if s.Obs == nil {
		mux.HandleFunc(path, h)
		return
	}
	s.Obs.Help("ctlog_server_requests_total", "Log front-end requests served, by endpoint.")
	s.Obs.Help("ctlog_server_request_seconds", "Log front-end handler latency, by endpoint.")
	ctr := s.Obs.Counter("ctlog_server_requests_total", "endpoint", endpoint)
	lat := s.Obs.Histogram("ctlog_server_request_seconds", nil, "endpoint", endpoint)
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		lat.Observe(time.Since(start).Seconds())
		ctr.Inc()
	})
}

type addChainRequest struct {
	Chain []string `json:"chain"` // base64 DER, leaf first
}

type addChainResponse struct {
	LogID     string `json:"id"`
	Timestamp int64  `json:"timestamp"`
	Signature string `json:"signature"`
}

func (s *Server) addChain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxRequestBytes())
	var req addChainRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil || len(req.Chain) == 0 {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	der, err := base64.StdEncoding.DecodeString(req.Chain[0])
	if err != nil {
		http.Error(w, "bad base64", http.StatusBadRequest)
		return
	}
	sct, err := s.Log.Add(der)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id := sct.LogID
	writeJSON(w, addChainResponse{
		LogID:     base64.StdEncoding.EncodeToString(id[:]),
		Timestamp: sct.Timestamp.UnixMilli(),
		Signature: base64.StdEncoding.EncodeToString(sct.Signature),
	})
}

type sthResponse struct {
	TreeSize       int    `json:"tree_size"`
	Timestamp      int64  `json:"timestamp"`
	SHA256RootHash string `json:"sha256_root_hash"`
	Signature      string `json:"tree_head_signature"`
}

func (s *Server) getSTH(w http.ResponseWriter, _ *http.Request) {
	sth, err := s.Log.STH()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, sthResponse{
		TreeSize:       sth.Size,
		Timestamp:      sth.Timestamp.UnixMilli(),
		SHA256RootHash: base64.StdEncoding.EncodeToString(sth.Root[:]),
		Signature:      base64.StdEncoding.EncodeToString(sth.Signature),
	})
}

type entriesResponse struct {
	Entries []entryJSON `json:"entries"`
}

type entryJSON struct {
	Index     int    `json:"index"`
	Timestamp int64  `json:"timestamp"`
	LeafInput string `json:"leaf_input"` // base64 DER
	Precert   bool   `json:"precert"`
}

func (s *Server) getEntries(w http.ResponseWriter, r *http.Request) {
	start, err1 := strconv.Atoi(r.URL.Query().Get("start"))
	end, err2 := strconv.Atoi(r.URL.Query().Get("end"))
	if err1 != nil || err2 != nil {
		http.Error(w, "start and end required", http.StatusBadRequest)
		return
	}
	if start < 0 || end < start {
		http.Error(w, "need 0 <= start <= end", http.StatusBadRequest)
		return
	}
	// Clamp to the batch cap, as real logs do, instead of serving
	// unbounded ranges.
	end = min(end, start+s.maxGetEntries()-1)
	// RFC 6962 uses an inclusive end.
	entries, err := s.Log.GetEntries(start, end+1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body := appendEntries(make([]byte, 0, entriesBodyLen(entries)), entries)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// The get-entries body, written without encoding/json: byte for byte
// what json.NewEncoder(w).Encode(entriesResponse{…}) writes, trailing
// newline and the empty list's null included. The Client's direct
// decoder reads exactly this layout.
const (
	entriesNull  = `{"entries":null}` + "\n"
	entriesOpen  = `{"entries":[`
	entriesClose = "]}\n"
	entryIndex   = `{"index":`
	entryTime    = `,"timestamp":`
	entryLeaf    = `,"leaf_input":"`
	entryPrecert = `","precert":`
)

// entriesBodyLen is the exact length appendEntries writes.
func entriesBodyLen(entries []Entry) int {
	if len(entries) == 0 {
		return len(entriesNull)
	}
	var num [20]byte
	n := len(entriesOpen) + len(entriesClose) + len(entries) - 1 // commas
	for _, e := range entries {
		n += len(entryIndex) + len(strconv.AppendInt(num[:0], int64(e.Index), 10)) +
			len(entryTime) + len(strconv.AppendInt(num[:0], e.Timestamp.UnixMilli(), 10)) +
			len(entryLeaf) + base64.StdEncoding.EncodedLen(len(e.DER)) +
			len(entryPrecert) + len(strconv.FormatBool(e.Precert)) + len("}")
	}
	return n
}

// appendEntries appends the get-entries body for entries to dst.
func appendEntries(dst []byte, entries []Entry) []byte {
	if len(entries) == 0 {
		return append(dst, entriesNull...)
	}
	dst = append(dst, entriesOpen...)
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, entryIndex...)
		dst = strconv.AppendInt(dst, int64(e.Index), 10)
		dst = append(dst, entryTime...)
		dst = strconv.AppendInt(dst, e.Timestamp.UnixMilli(), 10)
		dst = append(dst, entryLeaf...)
		dst = base64.StdEncoding.AppendEncode(dst, e.DER)
		dst = append(dst, entryPrecert...)
		dst = strconv.AppendBool(dst, e.Precert)
		dst = append(dst, '}')
	}
	return append(dst, entriesClose...)
}

type proofResponse struct {
	LeafIndex int      `json:"leaf_index"`
	AuditPath []string `json:"audit_path"`
}

func (s *Server) getProof(w http.ResponseWriter, r *http.Request) {
	hashB64 := r.URL.Query().Get("hash")
	size, err := strconv.Atoi(r.URL.Query().Get("tree_size"))
	if err != nil || hashB64 == "" {
		http.Error(w, "hash and tree_size required", http.StatusBadRequest)
		return
	}
	want, err := base64.StdEncoding.DecodeString(hashB64)
	if err != nil || len(want) != 32 {
		http.Error(w, "bad hash", http.StatusBadRequest)
		return
	}
	idx, proof, err := s.Log.ProveInclusionByHash(Hash(want), size)
	if errors.Is(err, ErrLeafNotFound) {
		http.Error(w, "hash not found", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := proofResponse{LeafIndex: idx}
	for _, p := range proof {
		resp.AuditPath = append(resp.AuditPath, base64.StdEncoding.EncodeToString(p[:]))
	}
	writeJSON(w, resp)
}

type consistencyResponse struct {
	Consistency []string `json:"consistency"`
}

func (s *Server) getConsistency(w http.ResponseWriter, r *http.Request) {
	first, err1 := strconv.Atoi(r.URL.Query().Get("first"))
	second, err2 := strconv.Atoi(r.URL.Query().Get("second"))
	if err1 != nil || err2 != nil {
		http.Error(w, "first and second required", http.StatusBadRequest)
		return
	}
	proof, err := s.Log.ProveConsistency(first, second)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := consistencyResponse{}
	for _, p := range proof {
		resp.Consistency = append(resp.Consistency, base64.StdEncoding.EncodeToString(p[:]))
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing sensible left to do.
		_ = fmt.Sprint(err)
	}
}
