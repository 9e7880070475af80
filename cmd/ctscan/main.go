// Command ctscan runs the RQ1 measurement over the synthetic CT corpus
// and regenerates the paper's issuance-side tables and figures:
// Tables 1, 2, 3, and 11, and Figures 2, 3, and 4.
//
// While the measurement runs, -metrics-addr serves the pipeline's
// live instruments (pipeline_* throughput and latency, per-lint
// lint_hits_total — the Table 1 cells accumulating in real time) as
// /metrics, /debug/vars, and /debug/pprof; -progress emits a
// structured progress line to stderr every interval.
//
// Usage:
//
//	ctscan -size 34800 [-workers N] [-table 1|2|3|11] [-figure 2|3|4] [-all-dates]
//	       [-metrics-addr :9090] [-progress 10s]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/corpus"
	"repro/internal/lint"
	_ "repro/internal/lint/lints" // register the 95 Unicert lints
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/serve"
)

func main() {
	size := flag.Int("size", 34800, "corpus size (34800 ≈ 1:1000 of the paper's dataset)")
	seed := flag.Int64("seed", 2025, "corpus seed")
	workers := flag.Int("workers", 0, "pipeline workers (0 = NumCPU); output is identical for any value")
	table := flag.Int("table", 0, "print one table (1, 2, 3, or 11); 0 = all")
	figure := flag.Int("figure", 0, "print one figure (2, 3, or 4); 0 = all")
	allDates := flag.Bool("all-dates", false, "ignore lint effective dates")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof on this address (e.g. :9090)")
	progressEvery := flag.Duration("progress", 0, "emit a progress line to stderr every interval (0 disables)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the measurement and drain the metrics
	// listener instead of killing the process mid-write.
	ctx, stop := serve.SignalContext(context.Background())
	defer stop()

	reg := obs.NewRegistry()
	lint.Global.EnableMetrics(reg)
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctscan: metrics listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ctscan: metrics at http://%s/metrics\n", ln.Addr())
		msrv := serve.New(reg.Handler(), serve.Config{Name: "metrics", Obs: reg})
		go func() {
			if err := msrv.Run(ctx, ln); err != nil {
				fmt.Fprintf(os.Stderr, "ctscan: metrics server: %v\n", err)
			}
		}()
	}
	if *progressEvery > 0 {
		prog := obs.NewProgress(os.Stderr, reg, *progressEvery, "pipeline_")
		prog.Start()
		defer prog.Stop()
	}

	cfg := corpus.DefaultConfig()
	cfg.Size = *size
	cfg.Seed = *seed
	res, err := pipeline.Measure(ctx, cfg, lint.Global,
		lint.Options{IgnoreEffectiveDates: *allDates},
		pipeline.Config{Workers: *workers, Obs: reg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctscan: %v\n", err)
		os.Exit(1)
	}
	m := res.Measurement

	all := *table == 0 && *figure == 0
	total := len(m.Corpus.Entries)
	nc := m.NCCount()
	fmt.Printf("corpus: %d Unicerts (%d precertificates filtered), %d noncompliant (%s)\n\n",
		total, len(m.Corpus.Precerts), nc, report.Percent(nc, total))

	if all || *table == 1 {
		fmt.Println(report.Table1(m.Table1(lint.Global), nc))
	}
	if all || *table == 2 {
		fmt.Println(report.Table2(m.Table2(10)))
	}
	if all || *table == 3 {
		fmt.Println(report.Table3(m.Table3()))
	}
	if all || *table == 11 {
		fmt.Println(report.Table11(m.Table11(25)))
	}
	if all || *figure == 2 {
		fmt.Println(report.Figure2(m.Figure2()))
	}
	if all || *figure == 3 {
		series := map[string][]int{
			"IDNCert":      m.ValidityCDF(func(i int, e *corpus.Entry) bool { return e.Class == corpus.ClassIDNCert }),
			"OtherUnicert": m.ValidityCDF(func(i int, e *corpus.Entry) bool { return e.Class == corpus.ClassOtherUnicert }),
			"Noncompliant": m.ValidityCDF(func(i int, e *corpus.Entry) bool { return m.Noncompliant(i) }),
		}
		fmt.Println(report.Figure3(series))
	}
	if all || *figure == 4 {
		fmt.Println(report.Figure4(m.Figure4(50)))
	}
}
