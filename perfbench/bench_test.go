package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"darwin/internal/core"
)

// tiny shrinks a workload to a smoke-test length.
func tiny(w workload) workload {
	w.passLen = 2_000
	return w
}

// resultLine is the contract's last output line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r resultLine
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

func chdirTemp(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestSmoke runs every workload at a tiny length, untraced and traced, and
// checks the result line carries every metric, finite and with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys every workload")
	}
	ms, err := loadMetrics("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	chdirTemp(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(tiny(w), runConfig{seed: 3, budget: time.Millisecond, traced: traced, conns: 2, log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var buf bytes.Buffer
			want := ms.of(r.Trace)
			if err := r.print(&buf, want); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := lastLine(t, buf.String())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%v", w.name, traced, res.Correct, res.Attempted, res.Failed, r.Checks)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: missing %s", w.name, traced, s.Name)
				case m.Unit != s.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, s.Name, m.Unit, s.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, s.Name, m.Value)
				}
			}
		}
	}
}

// TestSeeds: the seed alone fixes the trace, and two runs of one seed at one
// connection repeat the count metrics.
func TestSeeds(t *testing.T) {
	for _, w := range workloads {
		a, _ := w.gen(1, 4000)
		b, _ := w.gen(1, 4000)
		c, _ := w.gen(2, 4000)
		if !reflect.DeepEqual(a.Requests, b.Requests) {
			t.Errorf("%s: seed 1 generated two different traces", w.name)
		}
		if reflect.DeepEqual(a.Requests, c.Requests) {
			t.Errorf("%s: seeds 1 and 2 generated the same trace", w.name)
		}
	}
	if testing.Short() {
		return
	}
	chdirTemp(t)
	w := tiny(workloads[0])
	counts := func() map[string]float64 {
		r, err := runWorkload(w, runConfig{seed: 5, budget: time.Millisecond, conns: 1, log: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		return map[string]float64{
			"ohr":                      r.Metrics["ohr"],
			"origin_bytes_per_req":     r.Metrics["origin_bytes_per_req"],
			"disk_write_bytes_per_req": r.Metrics["disk_write_bytes_per_req"],
		}
	}
	if a, b := counts(), counts(); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 5 repeated with different counts: %v vs %v", a, b)
	}
}

// TestTracedFidelity: at one connection the traced and untraced
// deployments of one seed serve identically — same HOC/DC/miss counts and
// the same controller decisions — so the wrappers keep every seam the
// program relies on.
func TestTracedFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys twice")
	}
	chdirTemp(t)
	model, err := train()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("shift")
	w.originLatency, w.dcLatency = 0, 0
	tr, err := w.gen(7, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		hoc, dc, miss int64
		diags         []core.EpochDiag
	}
	serve := func(rec *recorder) outcome {
		d, err := deploy(w, model, rec, ".")
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		cl, err := newClient(d.entry, 1, rec)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.close()
		if l := cl.run(tr.Requests); l.failed != 0 {
			t.Fatalf("%d requests failed: %v", l.failed, l.firstErr)
		}
		m := d.nodes[0].proxy.Metrics()
		return outcome{m.HOCHits, m.DCHits, m.Misses, d.nodes[0].ctrl.Diags()}
	}
	rec := newRecorder()
	plain, traced := serve(nil), serve(rec)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("traced run diverged:\nuntraced %+v\ntraced   %+v", plain, traced)
	}
	if len(plain.diags) == 0 {
		t.Error("controller finished no epoch")
	}
	if len(rec.snapshot()) == 0 {
		t.Error("traced run recorded no spans")
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSliceP99: latencies group by completion second, a trailing part
// joins the slice before it, and an empty slice gives no figure.
func TestSliceP99(t *testing.T) {
	ms := time.Millisecond
	firstByte := []time.Duration{1 * ms, 2 * ms, 9 * ms, 3 * ms, 7 * ms}
	doneAt := []time.Duration{100 * ms, 900 * ms, 2100 * ms, 2500 * ms, 3200 * ms}
	got := sliceP99(firstByte, doneAt, 3400*ms)
	want := []time.Duration{2 * ms, 9 * ms} // [0,1s) and [2s,3.4s); [1s,2s) is empty
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sliceP99 = %v, want %v", got, want)
	}
	if got := sliceP99(firstByte[:1], doneAt[:1], 400*ms); !reflect.DeepEqual(got, []time.Duration{ms}) {
		t.Errorf("window shorter than a slice: %v, want [1ms]", got)
	}
}

// TestSelfTime: a parent's self time excludes the union of its children.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{start: 0, end: 10_000, id: 1, layer: lProxy},
		{start: 1_000, end: 3_000, id: 1, layer: lCoreLookup},
		{start: 2_000, end: 4_000, id: 1, layer: lFetch},
		{start: 5_000, end: 6_000, id: 1, layer: lCoreServe},
		{start: 5_000, end: 5_500, id: 1, layer: lCacheServe},
		{start: 20_000, end: 30_000, id: 2, layer: lProxy},
	}
	m := spanStats(spans, 1)
	// Request 1: 10 µs minus [1,4] and [5,6] = 6 µs; request 2: 10 µs.
	if got := m["server.proxy.self_us"]; got != 8 {
		t.Errorf("proxy self = %v µs, want 8", got)
	}
	if got := m["core.self_us"]; got != 0.5 {
		t.Errorf("core self = %v µs, want 0.5", got)
	}
}

// TestCheckFailedRequests: a request that failed in the measured window fails
// the pass, even when every completed request checks out.
func TestCheckFailedRequests(t *testing.T) {
	d := &deployment{}
	if bad := d.check(loadResult{attempted: 3, completed: 3, miss: 3}); len(bad) != 0 {
		t.Fatalf("clean window failed its checks: %v", bad)
	}
	if bad := d.check(loadResult{attempted: 4, completed: 3, failed: 1, miss: 3}); len(bad) != 1 {
		t.Errorf("window with a failed request: checks %v, want one failure", bad)
	}
}
