package main

import (
	"net/http"
	"path"
	"strconv"
	"sync"
	"time"
)

// schedule is an absolute timetable: event i is due at start + i/rate,
// whatever happened to the events before it. Nothing accumulates — a
// late event does not push the later ones back, so the offered rate
// holds over any stall, and how late each event ran is reported
// instead of hidden.
type schedule struct {
	start   time.Time
	perUnit time.Duration // 1/rate

	mu      sync.Mutex
	maxLate time.Duration
}

func newSchedule(start time.Time, ratePerS float64) *schedule {
	return &schedule{start: start, perUnit: time.Duration(float64(time.Second) / ratePerS)}
}

// due is when unit i (0-based) is scheduled.
func (s *schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.perUnit) }

// wait sleeps until unit i is due, or until done closes, and reports
// whether the unit came due. When the caller is already past it, wait
// returns at once and records the lateness. A nil done never closes.
func (s *schedule) wait(done <-chan struct{}, i int) bool {
	select {
	case <-done:
		return false
	default:
	}
	due := s.due(i)
	if d := time.Until(due); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-done:
			return false
		}
	}
	late := time.Since(due)
	s.mu.Lock()
	if late > s.maxLate {
		s.maxLate = late
	}
	s.mu.Unlock()
	return true
}

func (s *schedule) lateness() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxLate
}

// pacedTransport releases get-entries requests on a schedule measured
// in log entries: the request for entries [start, end] goes out when
// entry `end` is due, as if the log were growing at the schedule's
// rate. Other endpoints pass straight through.
type pacedTransport struct {
	base  http.RoundTripper
	sched *schedule
}

func (p *pacedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if path.Base(req.URL.Path) == "get-entries" {
		if end, err := strconv.Atoi(req.URL.Query().Get("end")); err == nil {
			if !p.sched.wait(req.Context().Done(), end) {
				return nil, req.Context().Err()
			}
		}
	}
	return p.base.RoundTrip(req)
}
