package exp

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"darwin/internal/baselines"
	"darwin/internal/breaker"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/faults"
	"darwin/internal/server"
	"darwin/internal/trace"
)

// PrototypeConfig sizes the HTTP testbed experiments. The injected latencies
// preserve the paper's ordering (client↔proxy ≪ disk ≪ proxy↔origin) at a
// scale that keeps benchmark runs short.
type PrototypeConfig struct {
	// OriginLatency is the injected proxy→origin delay (paper: 100 ms).
	OriginLatency time.Duration
	// DCLatency is the injected disk-read delay.
	DCLatency time.Duration
	// ClientLatency is the injected client→proxy delay (paper: 10 ms).
	ClientLatency time.Duration
	// Concurrency is the client worker count for latency runs.
	Concurrency int
	// ConcurrencySweep lists the worker counts for the throughput experiment.
	ConcurrencySweep []int
	// TraceLen is the request count per prototype run.
	TraceLen int
	// Shards is the cache-engine shard count for every proxy decider in the
	// run (<= 0 selects 1, the serial/global-lock arrangement).
	Shards int
}

// shards returns the effective shard count.
func (pc PrototypeConfig) shards() int {
	if pc.Shards <= 0 {
		return 1
	}
	return pc.Shards
}

// DefaultPrototypeConfig returns benchmark-friendly latencies (2 ms origin,
// 500 µs disk, no client delay).
func DefaultPrototypeConfig() PrototypeConfig {
	return PrototypeConfig{
		OriginLatency:    2 * time.Millisecond,
		DCLatency:        500 * time.Microsecond,
		ClientLatency:    0,
		Concurrency:      8,
		ConcurrencySweep: []int{1, 4, 16, 64},
		TraceLen:         8000,
	}
}

// PrototypeScale shrinks a scale's online knobs so Darwin's full
// warm-up → identify → exploit cycle fits the short traces HTTP prototype
// runs can afford: one epoch per 2000 requests with a 600-request warm-up.
// The returned scale trains its own (cached) corpus whose FeatureWindow
// matches the shrunken warm-up.
func PrototypeScale(sc Scale) Scale {
	sc.Online.Epoch = 2000
	sc.Online.Warmup = 600
	sc.Online.Round = 300
	sc.Online.StabilityRounds = 3
	return sc
}

// testbedRun is one prototype run's outcome: the client-side result plus
// the proxy's, its breaker's (zero without one) and the fault injector's
// (zero without one) counters.
type testbedRun struct {
	load    server.LoadResult
	stats   server.ProxyStats
	breaker breaker.Snapshot
	faults  faults.Stats
}

// runTestbed replays tr through a fresh origin+proxy pair: the HTTP testbed
// every prototype experiment shares. The origin delays each response by
// pc.OriginLatency and, when fc is non-nil, misbehaves on fc's schedule; the
// proxy runs dec with the stages res and ov switch on and pays pc.DCLatency
// on DC hits. lc configures the load generator; its ProxyURL is set here.
func runTestbed(dec server.Decider, pc PrototypeConfig, fc *faults.Config, res server.Resilience, ov server.Overload, tr *trace.Trace, lc server.LoadConfig) (testbedRun, error) {
	var origin http.Handler = &server.Origin{Latency: pc.OriginLatency}
	var injector *faults.Injector
	if fc != nil {
		injector = faults.New(*fc)
		origin = injector.Wrap(origin)
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	proxy := server.NewOverloadProxy(dec, originSrv.URL, pc.DCLatency, res, ov)
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()

	if injector != nil {
		// Outage windows anchor to the physical clock of the live origin
		// server, which is exactly the wall-clock boundary the determinism
		// rule carves out for internal/server.
		//lint:ignore determinism prototype testbed runs on the physical clock; simulator replays never reach this path
		injector.Restart(time.Now()) // align outage windows with the replay
	}
	lc.ProxyURL = proxySrv.URL
	lr, err := server.RunLoad(context.Background(), tr, lc)
	run := testbedRun{load: lr, stats: proxy.Stats()}
	run.breaker, _ = proxy.BreakerSnapshot()
	if injector != nil {
		run.faults = injector.Stats()
	}
	return run, err
}

// darwinDecider builds a Darwin controller decider for the prototype over a
// sharded cache engine (shards=1 reproduces the serial hierarchy exactly).
func darwinDecider(c *Corpus, shards int) (server.Decider, error) {
	eng, err := cache.NewSharded(cache.Config{
		HOCBytes: c.Scale.Eval.HOCBytes,
		DCBytes:  c.Scale.Eval.DCBytes,
	}, shards)
	if err != nil {
		return nil, err
	}
	// The prototype trace is short; shrink the online knobs to fit.
	oc := c.Scale.Online
	return core.NewController(c.Model, eng, oc)
}

// Fig4cPrototypeOHR reproduces Figure 4c: Darwin vs a subset of static
// experts on the HTTP prototype at low concurrency.
func Fig4cPrototypeOHR(c *Corpus, pc PrototypeConfig, tr *trace.Trace) (*Report, error) {
	rep := &Report{
		Title:  fmt.Sprintf("Figure 4c: prototype OHR (low concurrency, shards=%d)", pc.shards()),
		Header: []string{"scheme", "OHR", "requests", "errors"},
	}
	runOne := func(name string, dec server.Decider) error {
		run, err := runTestbed(dec, pc, nil, server.Resilience{}, server.Overload{}, tr,
			server.LoadConfig{Concurrency: pc.Concurrency})
		if err != nil {
			return err
		}
		res := run.load
		ohr := 0.0
		if res.Requests > 0 {
			ohr = float64(res.HOCHits) / float64(res.Requests)
		}
		rep.AddRow(name, f4(ohr), fmt.Sprint(res.Requests), fmt.Sprint(res.Errors))
		return nil
	}

	dd, err := darwinDecider(c, pc.shards())
	if err != nil {
		return nil, err
	}
	if err := runOne("darwin", dd); err != nil {
		return nil, err
	}
	// A spread of static experts, as in the paper's prototype comparison.
	picks := []int{0, len(c.Scale.Experts) / 2, len(c.Scale.Experts) - 1}
	for _, ei := range picks {
		e := c.Scale.Experts[ei]
		st, err := baselines.NewStaticSharded(e, c.Scale.Eval, pc.shards())
		if err != nil {
			return nil, err
		}
		if err := runOne(e.String(), st); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Fig7aLatency reproduces Figure 7a: the first-byte latency distribution for
// Darwin vs a static expert over a concatenated trace whose segments have
// different best experts.
func Fig7aLatency(c *Corpus, pc PrototypeConfig, tr *trace.Trace) (*Report, error) {
	rep := &Report{
		Title:  fmt.Sprintf("Figure 7a: first-byte latency (percentiles, ms, shards=%d)", pc.shards()),
		Header: []string{"scheme", "p10", "p50", "p90", "p99"},
	}
	runOne := func(name string, dec server.Decider) error {
		run, err := runTestbed(dec, pc, nil, server.Resilience{}, server.Overload{}, tr,
			server.LoadConfig{Concurrency: pc.Concurrency, ClientLatency: pc.ClientLatency})
		if err != nil {
			return err
		}
		ms := func(p float64) string {
			return fmt.Sprintf("%.2f", float64(run.load.LatencyPercentile(p).Microseconds())/1000)
		}
		rep.AddRow(name, ms(10), ms(50), ms(90), ms(99))
		return nil
	}
	dd, err := darwinDecider(c, pc.shards())
	if err != nil {
		return nil, err
	}
	if err := runOne("darwin", dd); err != nil {
		return nil, err
	}
	mid := c.Scale.Experts[len(c.Scale.Experts)/2]
	st, err := baselines.NewStaticSharded(mid, c.Scale.Eval, pc.shards())
	if err != nil {
		return nil, err
	}
	if err := runOne(mid.String(), st); err != nil {
		return nil, err
	}
	rep.AddNote("paper: Darwin lowers first-byte latency by avoiding origin round trips (higher OHR)")
	return rep, nil
}

// Fig7bThroughput reproduces Figure 7b: application throughput vs
// concurrency for Darwin and a static expert.
func Fig7bThroughput(c *Corpus, pc PrototypeConfig, tr *trace.Trace) (*Report, error) {
	rep := &Report{
		Title:  fmt.Sprintf("Figure 7b: throughput vs concurrency (Mbps, shards=%d)", pc.shards()),
		Header: []string{"concurrency", "darwin", "static"},
	}
	static := c.Scale.Experts[len(c.Scale.Experts)/2]
	for _, conc := range pc.ConcurrencySweep {
		run := func(dec server.Decider) (float64, error) {
			run, err := runTestbed(dec, pc, nil, server.Resilience{}, server.Overload{}, tr,
				server.LoadConfig{Concurrency: conc})
			if err != nil {
				return 0, err
			}
			return run.load.ThroughputBps() / 1e6, nil
		}
		dd, err := darwinDecider(c, pc.shards())
		if err != nil {
			return nil, err
		}
		dv, err := run(dd)
		if err != nil {
			return nil, err
		}
		st, err := baselines.NewStaticSharded(static, c.Scale.Eval, pc.shards())
		if err != nil {
			return nil, err
		}
		sv, err := run(st)
		if err != nil {
			return nil, err
		}
		rep.AddRow(intStr(conc), f2(dv), f2(sv))
	}
	rep.AddNote("paper: Darwin reaches 10.4 Gbps at 200 threads vs 9.3 Gbps static; shapes, not absolutes, carry over")
	return rep, nil
}

// PrototypeTrace builds the concatenated multi-segment trace of §6.4 (four
// segments with different best experts) at the prototype's length.
func PrototypeTrace(c *Corpus, totalLen int) (*trace.Trace, error) {
	segLen := totalLen / 4
	var segs []*trace.Trace
	for i, pct := range []int{100, 0, 75, 25} {
		tr, err := segmentTrace(c, pct, segLen, c.Scale.Seed+int64(900+i))
		if err != nil {
			return nil, err
		}
		segs = append(segs, tr)
	}
	return trace.Concat("prototype-concat", segs...), nil
}

func segmentTrace(c *Corpus, pct, n int, seed int64) (*trace.Trace, error) {
	return tracegenMix(pct, n, seed)
}
