package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints, per workload and metric, each side's median and
// quartiles, the pairs the new side won and a verdict. Runs pair up by seed.
// A metric whose spread (quartile distance over median) exceeds its bound on
// either side is unresolved: the runs cannot tell the two apart.
func compareFiles(w io.Writer, ms *metricSet, oldPath, newPath string) error {
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    int
	}
	group := func(rs []runResult) map[key][]runResult {
		g := map[key][]runResult{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	og, ng := group(olds), group(news)
	printEnv(w, "old", olds)
	printEnv(w, "new", news)
	for _, wl := range workloads {
		for tr := 0; tr <= 1; tr++ {
			o, n := og[key{wl.name, tr}], ng[key{wl.name, tr}]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			fmt.Fprintf(w, "\n%s trace=%d (%d old runs, %d new runs)\n", wl.name, tr, len(o), len(n))
			fmt.Fprintf(w, "  %-30s %-30s %-30s %8s %6s  %s\n", "metric", "old median [q1 q3]", "new median [q1 q3]", "delta", "won", "verdict")
			for _, s := range ms.of(tr) {
				ov, nv, pairs := sideValues(o, n, s.Name)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				fmt.Fprintf(w, "  %-30s %-30s %-30s %+7.2f%% %6s  %s\n", s.Name+" ("+s.Unit+")",
					describe(ov), describe(nv), pctDelta(median(ov), median(nv)), fmt.Sprintf("%d/%d", won(pairs, s), len(pairs)), verdict(ov, nv, pairs, s))
			}
		}
	}
	return nil
}

func printEnv(w io.Writer, side string, rs []runResult) {
	var calib []float64
	for _, r := range rs {
		if v, ok := r.Env["host.calib_us"].(float64); ok {
			calib = append(calib, v)
		}
	}
	e := rs[0].Env
	fmt.Fprintf(w, "%s: %d runs, nproc %v, GOMAXPROCS %v, %v, host.calib_us median %.1f\n",
		side, len(rs), e["nproc"], e["gomaxprocs"], e["go"], median(calib))
}

// sideValues returns both sides' values of a metric and the (old, new)
// pairs of runs with the same seed.
func sideValues(o, n []runResult, metric string) (ov, nv []float64, pairs [][2]float64) {
	bySeed := map[int64]float64{}
	for _, r := range o {
		if v, ok := r.Metrics[metric]; ok {
			ov = append(ov, v)
			bySeed[r.Seed] = v
		}
	}
	for _, r := range n {
		v, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		nv = append(nv, v)
		if old, ok := bySeed[r.Seed]; ok {
			pairs = append(pairs, [2]float64{old, v})
		}
	}
	return ov, nv, pairs
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", median(xs), q1, q3)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / math.Abs(old) * 100
}

// better reports whether b is better than a for the metric.
func better(s metricSpec, a, b float64) bool {
	if s.lowerBetter() {
		return b < a
	}
	return b > a
}

// won counts the pairs the new side won.
func won(pairs [][2]float64, s metricSpec) int {
	n := 0
	for _, p := range pairs {
		if better(s, p[0], p[1]) {
			n++
		}
	}
	return n
}

// verdict applies the comparison rule: unresolved when either side's spread
// exceeds the bound; regressed when the new median is worse by more than the
// bound; improved when the new side wins nine tenths of the pairs and the
// medians differ by more than the old side's quartile distance.
func verdict(ov, nv []float64, pairs [][2]float64, s metricSpec) string {
	if s.Bound == 0 {
		return ""
	}
	if spread(ov) > s.Bound || spread(nv) > s.Bound {
		return "unresolved"
	}
	om, nm := median(ov), median(nv)
	if better(s, nm, om) && math.Abs(nm-om) > s.Bound*math.Abs(om) {
		return "regressed"
	}
	q1, q3 := quartiles(ov)
	if len(pairs) > 0 && float64(won(pairs, s)) >= 0.9*float64(len(pairs)) && math.Abs(nm-om) > q3-q1 {
		return "improved"
	}
	return "unchanged"
}

// readRecords loads the {"record": ...} lines of a result file.
func readRecords(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	dec := json.NewDecoder(f)
	for {
		var line struct {
			Record *runResult `json:"record"`
		}
		err := dec.Decode(&line)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if line.Record != nil {
			out = append(out, *line.Record)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}
