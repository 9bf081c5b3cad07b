// Command perfbench is Darwin's end-to-end benchmark. It deploys, in one
// process, the configuration darwin-proxy and darwin-front run — Darwin's
// online controller over the sharded cache engine behind the overload proxy,
// an origin, and for the edge workload a front tier over three peer-filled
// nodes with disk journals — and drives it with a closed-loop load generator.
//
// Usage (from the repository root, through perfbench/run.sh; the metric lists
// and their bounds are read from BENCHMARK.json there):
//
//	run.sh --workload hot --seed 1 --seconds 20 --trace 0   # end-to-end metrics
//	run.sh --workload hot --seed 1 --seconds 20 --trace 1   # per-layer metrics
//	run.sh --workload all --seed 1 --seconds 20             # every workload, both runs, as a table
//	run.sh --compare old.jsonl new.jsonl                     # two result sets side by side
//
// Each run prints a {"record": ...} line (kept for --compare) and, last, the
// result line {"correct", "attempted", "failed", "metrics"}. It exits 1 when
// an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"darwin/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "hot | shift | edge | all")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same trace")
		seconds = fs.Float64("seconds", 20, "measured seconds per run (set-up and warm-up excluded)")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
		compare = fs.Bool("compare", false, "compare two result files named as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ms, err := loadMetrics("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, ms, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), conns: runtime.NumCPU(), log: stderr}
	if *name == "all" {
		return runAll(stdout, cfg, ms)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg.traced = *traced == 1
	r, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := r.print(stdout, ms.of(r.Trace)); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !r.correct() {
		for _, c := range r.Checks {
			fmt.Fprintln(stderr, "perfbench: output check failed:", c)
		}
		return 1
	}
	return 0
}

// runConfig is one run's settings.
type runConfig struct {
	seed   int64
	budget time.Duration // measured time
	traced bool
	conns  int // closed-loop connections: nproc
	log    io.Writer
}

// setupSamples is how many passes of a run train their own model, so
// setup_s is a median of full set-ups; later passes reuse the last model.
const setupSamples = 5

// maxRunTime stops a run from starting another pass past this wall time.
const maxRunTime = 150 * time.Second

// runResult is one run: its passes reduced to medians.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Passes    int                `json:"passes"`
	Env       map[string]any     `json:"env"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []string           `json:"checks,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *runResult) correct() bool { return len(r.Checks) == 0 }

// runWorkload repeats passes of w until the measured time reaches the
// budget. A traced run alternates untraced and traced passes: the untraced
// ones give the counters, runtime figures and the tracing overhead's
// baseline, the traced ones the spans.
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	began := time.Now()
	workDir := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	calib := calibrate()
	r := &runResult{Workload: w.name, Seed: cfg.seed, Env: map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"conns":      cfg.conns,
	}}
	if cfg.traced {
		r.Trace = 1
	}
	var plain, traced []passResult
	var measured time.Duration
	for i := 0; ; i++ {
		tracedPass := cfg.traced && i%2 == 1
		pairDone := !cfg.traced || i%2 == 0
		if i > 0 && pairDone && (measured >= cfg.budget || time.Since(began) > maxRunTime) {
			break
		}
		// Pass k replays the k-th trace of the seed; a traced pass replays
		// the same trace as the untraced pass before it.
		k := i
		if cfg.traced {
			k = i / 2
		}
		tr, err := w.gen(passSeed(cfg.seed, k), w.passLen)
		if err != nil {
			return nil, fmt.Errorf("generating %s trace: %w", w.name, err)
		}
		var model *core.Model
		if i >= setupSamples {
			model = plain[len(plain)-1].model
		}
		p, err := runPass(w, tr, model, cfg.conns, tracedPass, workDir)
		if err != nil {
			return nil, err
		}
		measured += p.load.wall
		r.Attempted += p.load.attempted
		r.Failed += p.load.failed
		r.Checks = append(r.Checks, p.checks...)
		e := p.endToEnd()
		fmt.Fprintf(cfg.log, "perfbench: %s pass %d traced=%v: %d requests in %.2fs, ohr %.4f, p99 %.3fms, cpu %.1fus/req, heap %.3fMB, setup %.2fs\n",
			w.name, i, tracedPass, p.load.completed, p.load.wall.Seconds(), e["ohr"], e["first_byte_p99_ms"], e["cpu_us_per_req"], e["heap_live_mb"], p.setup.Seconds())
		if tracedPass {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	r.Passes = len(plain) + len(traced)
	calibAfter := calibrate()
	r.Env["host.calib_us"] = (calib + calibAfter) / 2

	e2e := medians(plain, passResult.endToEnd)
	for k, v := range pooled(plain) {
		e2e[k] = v
	}
	if !cfg.traced {
		r.Metrics = e2e
		return r, nil
	}
	r.Metrics = medians(plain, passResult.layerCounts)
	for k, v := range medians(traced, func(p passResult) map[string]float64 { return p.spans }) {
		r.Metrics[k] = v
	}
	tracedRPS := medians(traced, passResult.endToEnd)["throughput_rps"]
	r.Metrics["trace.overhead_pct"] = (e2e["throughput_rps"] - tracedRPS) / e2e["throughput_rps"] * 100
	r.Metrics["host.calib_us"] = (calib + calibAfter) / 2
	return r, nil
}

// passSeed derives the trace seed of a run's k-th pass, so each run's
// medians span several traces of its seed.
func passSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// medians reduces per-pass metrics to their medians.
func medians(passes []passResult, f func(passResult) map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, p := range passes {
		for k, v := range f(p) {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the record line and then the result line, which carries the
// listed metrics.
func (r *runResult) print(w io.Writer, specs []metricSpec) error {
	metrics := map[string]metricValue{}
	for _, s := range specs {
		v, ok := r.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, s.Name)
		}
		metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	rec, err := json.Marshal(map[string]any{"record": r})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, res)
	return err
}

// runAll runs every workload untraced and traced and prints one table.
func runAll(w io.Writer, cfg runConfig, ms *metricSet) int {
	code := 0
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.traced = traced
			r, err := runWorkload(wl, cfg)
			if err != nil {
				fmt.Fprintln(cfg.log, "perfbench:", err)
				return 1
			}
			fmt.Fprintf(w, "\n%s (trace=%d, %d passes, %d attempted, %d failed, error_rate %.4g)\n",
				wl.name, r.Trace, r.Passes, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
			for _, s := range ms.of(r.Trace) {
				fmt.Fprintf(w, "  %-32s %14.4f %s\n", s.Name, r.Metrics[s.Name], s.Unit)
			}
			for _, c := range r.Checks {
				fmt.Fprintln(w, "  output check failed:", c)
				code = 1
			}
		}
	}
	return code
}
