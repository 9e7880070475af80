package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/serve"
	"repro/internal/uni"
)

// Query classes, in the order the per-class metrics are reported.
var queryClasses = []string{"point", "prefix", "skeleton", "range"}

func classIndex(name string) (int, bool) {
	for i, c := range queryClasses {
		if c == name {
			return i, true
		}
	}
	return 0, false
}

// query is one scheduled request: its class, the URL the generator
// sends, the equivalent direct index.Query, and the predicate every
// returned record must satisfy.
type query struct {
	class  int
	url    string // path + query string
	direct index.Query
	key    string // lowercased domain / prefix / skeleton
	from   time.Time
	to     time.Time
}

// matches reports whether a returned record is one the query asked for.
func (q *query) matches(rec *index.Record) bool {
	switch queryClasses[q.class] {
	case "point":
		return rec.Domain == q.key
	case "prefix":
		return strings.HasPrefix(rec.Domain, q.key)
	case "skeleton":
		return rec.Skeleton == q.key
	default:
		return !rec.NotBefore.Before(q.from) && !rec.NotBefore.After(q.to)
	}
}

// storedName is a subject name in the form index.FromCert files it
// under: lowercased, NULs stripped.
func storedName(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), "\x00", "")
}

// buildQueries draws n queries from the seeded mix, with keys taken
// from the corpus so lookups hit what the crawl indexes. The same seed
// and corpus give the same list.
func buildQueries(seed int64, n int, certs []*corpus.Entry, g queryGrid) []query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]query, n)
	for i := range out {
		class, _ := classIndex(g.Mix[rng.Intn(len(g.Mix))])
		cert := certs[rng.Intn(len(certs))].Cert
		domain := storedName(cert.Subject.CommonName())
		if names := cert.DNSNames(); len(names) > 0 {
			domain = storedName(names[rng.Intn(len(names))])
		}
		if domain == "" {
			// A nameless certificate can only be asked for by date.
			class, _ = classIndex("range")
		}
		q := query{class: class}
		switch queryClasses[class] {
		case "point":
			q.key = domain
			q.direct = index.PointQuery(domain)
			q.url = "/ct/v1/query?domain=" + url.QueryEscape(domain)
		case "prefix":
			q.key = domain
			if chars := []rune(domain); len(chars) > g.PrefixChars {
				q.key = string(chars[:g.PrefixChars])
			}
			q.direct = index.PrefixQuery(q.key)
			q.direct.Limit = g.PrefixLimit
			q.url = "/ct/v1/query?prefix=" + url.QueryEscape(q.key) + "&limit=" + strconv.Itoa(g.PrefixLimit)
		case "skeleton":
			q.key = uni.Skeleton(domain)
			q.direct = index.HomographQuery(domain)
			q.url = "/ct/v1/query?skeleton=" + url.QueryEscape(domain)
		case "range":
			q.from = cert.NotBefore.UTC().Truncate(time.Second)
			q.to = q.from.Add(time.Duration(g.RangeHours) * time.Hour)
			q.direct = index.RangeQuery(q.from, q.to)
			q.direct.Limit = g.RangeLimit
			q.url = "/ct/v1/query?from=" + url.QueryEscape(q.from.Format(time.RFC3339)) +
				"&to=" + url.QueryEscape(q.to.Format(time.RFC3339)) + "&limit=" + strconv.Itoa(g.RangeLimit)
		}
		out[i] = q
	}
	return out
}

// queryServer is index.Handler on a loopback listener.
type queryServer struct {
	base string
	srv  *serve.Server
	done chan error
}

func startQueryServer(h http.Handler) (*queryServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("query listener: %w", err)
	}
	qs := &queryServer{base: "http://" + ln.Addr().String(), srv: serve.New(h, serve.Config{Name: "query"}), done: make(chan error, 1)}
	go func() { qs.done <- qs.srv.Serve(ln) }()
	return qs, nil
}

func (qs *queryServer) close() {
	_ = qs.srv.Shutdown(context.Background()) // the generator has stopped; nothing to drain
	<-qs.done
}

// querySamples is what one generator phase observed.
type querySamples struct {
	sent     int
	failed   int
	failures []string // first few, for the report
	hits     int
	maxLate  time.Duration
	// latency from each request's DUE time to its last response byte,
	// in milliseconds, per class and overall.
	all     []float64
	byClass [][]float64
}

func (s *querySamples) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// slowShare is the share of samples slower than limitMS.
func (s *querySamples) slowShare(limitMS float64) float64 {
	if len(s.all) == 0 {
		return 0
	}
	n := 0
	for _, v := range s.all {
		if v > limitMS {
			n++
		}
	}
	return float64(n) / float64(len(s.all))
}

type queryResponse struct {
	Count   int `json:"count"`
	Results []struct {
		index.Record
		LeafHash string `json:"leaf_hash"`
	} `json:"results"`
}

// runQueries is the open-loop generator: it sends the queries one per
// schedule slot until stop closes (or the list runs out), timing each
// from the moment it was DUE — so the wait a stall imposes on the
// requests behind it is counted, not omitted — and checks every answer.
// It runs on the caller's goroutine.
func runQueries(client *http.Client, base string, queries []query, ratePerS float64, stop <-chan struct{}) *querySamples {
	s := &querySamples{byClass: make([][]float64, len(queryClasses))}
	sched := newSchedule(time.Now(), ratePerS)
	for i := range queries {
		if !sched.wait(stop, i) {
			break
		}
		q, due := &queries[i], sched.due(i)
		s.sent++
		resp, err := client.Get(base + q.url)
		if err != nil {
			s.fail("%s: %v", q.url, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ms := float64(time.Since(due).Nanoseconds()) / 1e6
		s.all = append(s.all, ms)
		s.byClass[q.class] = append(s.byClass[q.class], ms)
		if err != nil || resp.StatusCode != http.StatusOK {
			s.fail("%s: status %d, read error %v", q.url, resp.StatusCode, err)
			continue
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			s.fail("%s: undecodable answer: %v", q.url, err)
			continue
		}
		if qr.Count > 0 {
			s.hits++
		}
		for j := range qr.Results {
			if !q.matches(&qr.Results[j].Record) {
				s.fail("%s: record %q does not match the query", q.url, qr.Results[j].Domain)
				break
			}
		}
	}
	s.maxLate = sched.lateness()
	return s
}

// directLookupUS times LookupAppend calls straight into the store for
// every query of each class, and returns the median microseconds per
// class — what is left of the HTTP latency once the listener, JSON and
// loopback are taken away.
func directLookupUS(ix index.Index, queries []query) ([]float64, error) {
	samples := make([][]float64, len(queryClasses))
	var dst []index.Record
	for i := range queries {
		q := &queries[i]
		start := time.Now()
		recs, err := ix.LookupAppend(q.direct, dst[:0])
		us := float64(time.Since(start).Nanoseconds()) / 1e3
		if err != nil {
			return nil, fmt.Errorf("direct lookup %s: %w", q.url, err)
		}
		dst = recs
		samples[q.class] = append(samples[q.class], us)
	}
	out := make([]float64, len(queryClasses))
	for c := range samples {
		out[c] = median(samples[c])
	}
	return out, nil
}
