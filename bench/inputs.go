package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/corpus"
	"repro/internal/ctlog"
	"repro/internal/obs"
	"repro/internal/serve"
)

// logNames label the in-process logs; the grid may use fewer.
var logNames = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}

// fleetWindow is log i's half-stride-overlapping slice of [0, total) —
// ctmonitor's fleet-mode overlap shape, re-stated here because it lives
// in package main over there.
func fleetWindow(i, n, total int) (lo, hi int) {
	if n <= 1 || total <= n {
		return 0, total
	}
	stride := total / n
	lo = i*stride - stride/2
	if lo < 0 {
		lo = 0
	}
	hi = (i+1)*stride + stride/2
	if i == n-1 || hi > total {
		hi = total
	}
	return lo, hi
}

// generateCorpus builds the first n certificates of the seeded corpus.
// Slot i's certificate depends only on (seed, i), so a smaller share is
// a prefix of a larger one. Precertificate twins and variant pairs stay
// off: a live crawl drops the former before the consumer, and the
// latter would make the share's length depend on its content.
func generateCorpus(seed int64, n int) (*corpus.Corpus, error) {
	c, err := corpus.Generate(corpus.Config{Size: n, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return c, nil
}

// benchLog is one in-process CT log behind its loopback front end.
type benchLog struct {
	name   string
	lo, hi int // corpus window [lo, hi)
	log    *ctlog.Log
	base   string
	srv    *serve.Server
	done   chan error
}

// liveInputs is everything a live workload needs before the system
// under test starts: the corpus share, the logs that hold it with
// overlap, and their listeners. Building it is what setup_s times.
type liveInputs struct {
	certs     []*corpus.Entry // nil once the timed crawls start
	nCerts    int
	logs      []*benchLog
	reg       *obs.Registry // shared by every layer, as ctmonitor does
	trace     *traceSwitch
	transport *http.Transport

	generateS, logBuildS float64
}

func buildLiveInputs(seed int64, certs, logs int) (*liveInputs, error) {
	if logs > len(logNames) {
		return nil, fmt.Errorf("at most %d logs", len(logNames))
	}
	in := &liveInputs{reg: obs.NewRegistry(), trace: &traceSwitch{}, transport: &http.Transport{}}
	t0 := time.Now()
	c, err := generateCorpus(seed, certs)
	if err != nil {
		return nil, err
	}
	in.certs, in.nCerts = c.Entries, len(c.Entries)
	in.generateS = time.Since(t0).Seconds()

	t0 = time.Now()
	for i := 0; i < logs; i++ {
		lo, hi := fleetWindow(i, logs, len(in.certs))
		log, err := ctlog.NewLog(2025 + int64(i))
		if err != nil {
			in.close()
			return nil, err
		}
		for _, e := range in.certs[lo:hi] {
			if _, err := log.AddParsed(e.DER, false); err != nil {
				in.close()
				return nil, fmt.Errorf("log %s: %w", logNames[i], err)
			}
		}
		in.logs = append(in.logs, &benchLog{name: logNames[i], lo: lo, hi: hi, log: log})
	}
	in.logBuildS = time.Since(t0).Seconds()

	for _, bl := range in.logs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			in.close()
			return nil, fmt.Errorf("log %s listener: %w", bl.name, err)
		}
		h := (&ctlog.Server{Log: bl.log, Obs: in.reg, Name: "ctlog-" + bl.name}).Handler()
		bl.srv = serve.New(in.trace.serverMiddleware(h), serve.Config{Name: "ctlog-" + bl.name})
		bl.base = "http://" + ln.Addr().String()
		bl.done = make(chan error, 1)
		go func(bl *benchLog) { bl.done <- bl.srv.Serve(ln) }(bl)
	}
	return in, nil
}

// fetchable is how many log entries a full crawl of every log fetches.
func (in *liveInputs) fetchable() int {
	n := 0
	for _, bl := range in.logs {
		n += bl.hi - bl.lo
	}
	return n
}

// close retires the listeners and waits for their serve loops.
func (in *liveInputs) close() {
	for _, bl := range in.logs {
		if bl.srv == nil {
			continue
		}
		_ = bl.srv.Shutdown(context.Background()) // nothing in flight; a drain error changes nothing here
		<-bl.done
	}
	in.transport.CloseIdleConnections()
}
