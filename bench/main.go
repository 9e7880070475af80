// Command bench is the repo's benchmark: it drives the deployed path —
// CT logs over loopback → audited crawl → parse → lint → dedup → index,
// with queries arriving meanwhile — and the paper's batch path, from
// outside, through the packages' public functions only. README.md in
// this directory says what each workload and metric means.
//
//	go run ./bench --workload crawl-audit --seed 1 --seconds 10 --trace 0
//	go run ./bench            # every workload, repeated, with the layer table
//	go run ./bench -aa        # two full sets, compared against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload once and print one JSON result line (default: the full grid)")
		seed     = flag.Int64("seed", 31, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 15, "how long one run measures")
		trace    = flag.Int("trace", 0, "with -workload: 1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		repeats  = flag.Int("repeats", 0, "untraced runs per workload in the full grid (default: workloads.json)")
		scale    = flag.Float64("scale", 1, "multiplier on every corpus share in workloads.json")
		out      = flag.String("out", "", "directory that keeps the trace files (default: a fresh directory under ./.bench_build, removed on exit)")
		aa       = flag.Bool("aa", false, "run the full grid twice and fail when the two sets disagree beyond a metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	g, err := loadGrid(*scale)
	if err != nil {
		fatal(err)
	}
	if *repeats > 0 {
		g.Repeats = *repeats
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	// Scratch stays inside the working directory: the driver's checkout
	// is the only place a run may write.
	dir, keep := *out, *out != ""
	if !keep {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	if !keep {
		if dir, err = os.MkdirTemp(dir, "run-"); err != nil {
			fatal(err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	env := environment(*seed, *scale)
	p := runParams{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: dir}
	ok := false
	switch {
	case *workload != "":
		ok, err = single(ctx, g, *workload, p, env)
	case *aa:
		ok, err = compareSets(ctx, g, p, env)
	default:
		var set *resultSet
		if set, err = fullGrid(ctx, g, p, env, true); err == nil {
			ok = set.failed == 0
		}
	}
	if !keep {
		os.RemoveAll(dir)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// envBlock says where the numbers were taken.
type envBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	GitSHA     string  `json:"git_sha"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
}

func environment(seed int64, scale float64) envBlock {
	e := envBlock{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version(), GitSHA: "unknown", Seed: seed, Scale: scale}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.GitSHA = s.Value
			}
		}
	}
	return e
}

func (e envBlock) print() {
	buf, _ := json.Marshal(e) // a struct of strings and numbers cannot fail to marshal
	fmt.Printf("environment %s\n", buf)
	if e.NProc < 2 {
		fmt.Println("WARNING: nproc < 2 — every wall-clock number below measures the scheduler as much as the system; the worker-scaling rows are omitted (0)")
	}
}

// single is the driver's contract: one workload, one run, one JSON
// object on the last line of standard output.
func single(ctx context.Context, g *grid, name string, p runParams, env envBlock) (bool, error) {
	spec, ok := g.workload(name)
	if !ok {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	env.print()
	res, err := runWorkload(ctx, g, spec, p)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if p.traced {
		defs = perLayer(g)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	fmt.Printf("%s: seed %d, %d iterations in the window\n", name, p.seed, res.iters)
	for _, d := range defs {
		v := res.metrics[d.Name]
		fmt.Printf("  %-44s %16.6g %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = value{v, d.Unit}
	}
	for _, n := range res.notes {
		fmt.Println("  FAILED:", n)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", buf)
	return res.failed == 0, nil
}

// resultSet is one full grid: per workload and metric, the values of
// every repeat.
type resultSet struct {
	values            map[string]map[string][]float64
	attempted, failed int64
}

func (s *resultSet) add(workload string, res *outcome) {
	if s.values[workload] == nil {
		s.values[workload] = map[string][]float64{}
	}
	for k, v := range res.metrics {
		s.values[workload][k] = append(s.values[workload][k], v)
	}
	s.attempted += res.attempted
	s.failed += res.failed
	for _, n := range res.notes {
		fmt.Println("  FAILED:", n)
	}
}

// fullGrid runs every workload g.Repeats times untraced, interleaved
// round-robin so drift on the box spreads over all of them, then (when
// traced is set) each once more traced, and prints every metric by
// name with unit, median, min, max and sample count.
func fullGrid(ctx context.Context, g *grid, p runParams, env envBlock, traced bool) (*resultSet, error) {
	env.print()
	set := &resultSet{values: map[string]map[string][]float64{}}
	// round runs every workload once.
	round := func(label string, traced bool) error {
		for _, spec := range g.Workloads {
			fmt.Printf("%s %s\n", label, spec.Name)
			q := p
			q.traced = traced
			res, err := runWorkload(ctx, g, spec, q)
			if err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
			set.add(spec.Name, res)
		}
		return nil
	}
	for rep := 0; rep < g.Repeats; rep++ {
		if err := round(fmt.Sprintf("run %d/%d", rep+1, g.Repeats), false); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := round("traced run", true); err != nil {
			return nil, err
		}
	}
	for _, spec := range g.Workloads {
		fmt.Printf("\n%s\n  %-44s %-6s %14s %14s %14s %3s\n", spec.Name, "metric", "unit", "median", "min", "max", "n")
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer(g)...) {
			v := set.values[spec.Name][d.Name]
			if len(v) == 0 {
				continue
			}
			lo, hi := minMax(v)
			fmt.Printf("  %-44s %-6s %14.6g %14.6g %14.6g %3d\n", d.Name, d.Unit, median(v), lo, hi, len(v))
		}
	}
	share := float64(set.failed) / float64(max(set.attempted, 1))
	fmt.Printf("\nfailed_share %g (%d of %d operations)\n", share, set.failed, set.attempted)
	return set, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction; negative means b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets is -aa: the same code measured twice must agree with
// itself within every bound, or the bounds mean nothing.
func compareSets(ctx context.Context, g *grid, p runParams, env envBlock) (bool, error) {
	first, err := fullGrid(ctx, g, p, env, false)
	if err != nil {
		return false, err
	}
	second, err := fullGrid(ctx, g, p, env, false)
	if err != nil {
		return false, err
	}
	ok := first.failed == 0 && second.failed == 0
	fmt.Printf("\nA/A: second set against first\n  %-20s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse-by", "bound")
	names := make([]string, 0, len(first.values))
	for name := range first.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, d := range endToEnd {
			a, b := median(first.values[name][d.Name]), median(second.values[name][d.Name])
			w := worseBy(d, a, b)
			verdict := ""
			// Either order: an A/A pair has no "before".
			if w > d.Bound || worseBy(d, b, a) > d.Bound {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("  %-20s %-26s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", name, d.Name, a, b, 100*w, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}
