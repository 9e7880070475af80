package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
)

// The grid is data, not code: sizes, log count, batch, query rate and
// mix all live in workloads.json so a reviewer can read what ran
// without reading the harness.
//
//go:embed workloads.json
var gridJSON []byte

type grid struct {
	Logs      int            `json:"logs"`
	Batch     int            `json:"batch"`
	Repeats   int            `json:"repeats"`
	Query     queryGrid      `json:"query"`
	Workloads []workloadSpec `json:"workloads"`
}

type queryGrid struct {
	RatePerS    float64  `json:"rate_per_s"`
	TailSeconds float64  `json:"tail_seconds"`
	Mix         []string `json:"mix"`
	PrefixChars int      `json:"prefix_chars"`
	PrefixLimit int      `json:"prefix_limit"`
	RangeHours  int      `json:"range_hours"`
	RangeLimit  int      `json:"range_limit"`
}

type workloadSpec struct {
	Name string `json:"name"`
	// Certs is the corpus share: the first Certs certificates of the
	// seeded corpus.
	Certs int `json:"certs"`
	// Audit and Paced shape the live workloads; Workers and
	// ScalingWorkers the batch one.
	Audit          bool  `json:"audit,omitempty"`
	Paced          bool  `json:"paced,omitempty"`
	Workers        int   `json:"workers,omitempty"`
	ScalingWorkers []int `json:"scaling_workers,omitempty"`
}

func (w workloadSpec) live() bool { return w.Workers == 0 }

// loadGrid parses the embedded grid and multiplies every corpus share
// by scale.
func loadGrid(scale float64) (*grid, error) {
	dec := json.NewDecoder(bytes.NewReader(gridJSON))
	dec.DisallowUnknownFields()
	var g grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if g.Logs < 1 || g.Batch < 1 || g.Repeats < 1 {
		return nil, fmt.Errorf("workloads.json: logs, batch and repeats must be positive")
	}
	if g.Query.RatePerS <= 0 || len(g.Query.Mix) == 0 {
		return nil, fmt.Errorf("workloads.json: query needs a rate and a mix")
	}
	for _, c := range g.Query.Mix {
		if _, ok := classIndex(c); !ok {
			return nil, fmt.Errorf("workloads.json: unknown query class %q", c)
		}
	}
	if scale <= 0 {
		return nil, fmt.Errorf("-scale must be positive, got %v", scale)
	}
	for i := range g.Workloads {
		w := &g.Workloads[i]
		w.Certs = int(float64(w.Certs) * scale)
		// Every log needs a couple of batches for the overlap shape to
		// exist at all.
		if min := g.Logs * g.Batch; w.Certs < min {
			w.Certs = min
		}
	}
	return &g, nil
}

func (g *grid) workload(name string) (workloadSpec, bool) {
	for _, w := range g.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
