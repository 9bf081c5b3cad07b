package main

import (
	"errors"
	"fmt"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/diskcache"
	"darwin/internal/server"
	"darwin/internal/trace"
)

// counters is a snapshot of every program-side counter a pass reads, and of
// the process's CPU time and runtime counters, taken at the start and end of
// the measured window.
type counters struct {
	originReqs, originBytes int64
	node                    []cache.Metrics // per node, exact (SyncMetrics)
	proxy                   server.ProxyStats
	front                   server.FrontStats
	store                   diskcache.Stats
	learning                time.Duration
	epochs, rounds          int64
	switches                int64
	cpu                     time.Duration
	rt                      runtimeSample
}

func (d *deployment) counters() counters {
	var c counters
	c.originReqs, c.originBytes = d.origin.Stats()
	for _, n := range d.nodes {
		c.node = append(c.node, n.proxy.Metrics())
		st := n.proxy.Stats()
		c.proxy.OriginFetches += st.OriginFetches
		c.proxy.Retries += st.Retries
		c.proxy.Coalesced += st.Coalesced
		c.proxy.Hedges += st.Hedges
		c.proxy.Shed += st.Shed
		c.proxy.Errors += st.Errors
		c.proxy.PeerProbes += st.PeerProbes
		c.proxy.PeerFills += st.PeerFills
		c.proxy.PeerErrors += st.PeerErrors
		c.proxy.GossipExchanges += st.GossipExchanges
		if n.store != nil {
			ss := n.store.Stats()
			c.store.Puts += ss.Puts
			c.store.Removes += ss.Removes
			c.store.Syncs += ss.Syncs
			c.store.Compactions += ss.Compactions
			c.store.LogBytes += ss.LogBytes
		}
		c.learning += n.ctrl.LearningDuration()
		for _, e := range n.ctrl.Diags() {
			c.epochs++
			c.rounds += int64(e.Rounds)
		}
		c.switches += n.eng.ExpertSwitches()
	}
	if d.front != nil {
		c.front = d.front.Stats()
	}
	c.rt = sampleRuntime()
	c.cpu = processCPU()
	return c
}

// passResult is one pass: a fresh deployment, warmed, then measured.
type passResult struct {
	model *core.Model
	// setup is training + construction + journal open; 0 when the pass
	// reused an earlier pass's model.
	setup  time.Duration
	load   loadResult
	before counters
	after  counters
	heapMB float64            // live heap the deployment holds after the pass
	spans  map[string]float64 // traced passes only: span and httptrace figures
	checks []string           // failed output checks
}

// runPass deploys w, replays tr through it with conns closed-loop
// connections and tears it down. Warm-up requests are not measured. A nil
// model is trained first, and the set-up is timed.
func runPass(w workload, tr *trace.Trace, model *core.Model, conns int, traced bool, workDir string) (passResult, error) {
	res := passResult{model: model}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var training time.Duration
	if res.model == nil {
		start := time.Now()
		m, err := train()
		if err != nil {
			return res, err
		}
		res.model = m
		training = time.Since(start)
	}
	// The live heap before the deployment exists holds the model and the
	// benchmark's own data (trace, earlier passes' figures); heap_live_mb
	// is what the deployment adds to it.
	heapBefore := heapLiveMB()
	start := time.Now()
	d, err := deploy(w, res.model, rec, workDir)
	if err != nil {
		return res, fmt.Errorf("deploying %s: %w", w.name, err)
	}
	if model == nil {
		res.setup = training + time.Since(start)
	}
	cl, err := newClient(d.entry, conns, rec)
	if err != nil {
		return res, errors.Join(err, d.close())
	}
	defer cl.close()

	warm := int(float64(tr.Len()) * warmupFrac)
	if wr := cl.run(tr.Requests[:warm]); wr.failed > 0 {
		res.checks = append(res.checks, fmt.Sprintf("warm-up: %d of %d requests failed: %v", wr.failed, wr.attempted, wr.firstErr))
	}
	if rec != nil {
		rec.reset()
	}
	d.settle()
	res.before = d.counters()
	res.load = cl.run(tr.Requests[warm:])
	d.settle()
	res.after = d.counters()
	res.checks = append(res.checks, d.check(res.load)...)
	res.heapMB = heapLiveMB() - heapBefore
	if rec != nil {
		res.spans = spanStats(rec.snapshot(), w.nodes)
		res.spans["server.fetch.dials"] = float64(rec.dials.Load())
		res.spans["server.fetch.conn_wait_us"] = 0
		if n := rec.connWaits.Load(); n > 0 {
			res.spans["server.fetch.conn_wait_us"] = float64(rec.connWaitNS.Load()) / float64(n) / 1e3
		}
	}
	if err := d.close(); err != nil {
		return res, fmt.Errorf("tearing down %s: %w", w.name, err)
	}
	return res, nil
}

// check runs the output checks that every pass must pass.
func (d *deployment) check(l loadResult) []string {
	var bad []string
	if l.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d requests failed: %v", l.failed, l.attempted, l.firstErr))
	}
	if l.bytes != l.wantBytes {
		bad = append(bad, fmt.Sprintf("received %d body bytes, requested sizes sum to %d", l.bytes, l.wantBytes))
	}
	if l.hoc+l.dc+l.miss != l.completed {
		bad = append(bad, fmt.Sprintf("X-Cache counts %d+%d+%d (other %d) != %d completed", l.hoc, l.dc, l.miss, l.other, l.completed))
	}
	for i, n := range d.nodes {
		if m := n.proxy.Metrics(); m.HOCHits+m.DCHits+m.Misses != m.Requests {
			bad = append(bad, fmt.Sprintf("node %d: hits+misses %d != requests %d", i, m.HOCHits+m.DCHits+m.Misses, m.Requests))
		}
	}
	if d.front != nil {
		st := d.front.Stats()
		if st.Requests != st.Relayed || st.NoBackend != 0 {
			bad = append(bad, fmt.Sprintf("front: %d requests, %d relayed, %d without a backend", st.Requests, st.Relayed, st.NoBackend))
		}
		for i, wt := range d.front.Weights() {
			if wt != 1 {
				bad = append(bad, fmt.Sprintf("front: backend %d weight %g, want 1", i, wt))
			}
		}
	}
	return bad
}

// endToEnd returns the pass's end-to-end metrics.
func (p passResult) endToEnd() map[string]float64 {
	l := p.load
	per := func(v float64) float64 {
		if l.completed == 0 {
			return 0
		}
		return v / float64(l.completed)
	}
	var dcw int64
	for i := range p.after.node {
		dcw += p.after.node[i].DCWriteBytes - p.before.node[i].DCWriteBytes
	}
	return map[string]float64{
		"throughput_rps":           float64(l.completed) / l.wall.Seconds(),
		"first_byte_p50_ms":        l.fbP50ms,
		"first_byte_p99_ms":        l.fbP99ms,
		"ohr":                      per(float64(l.hoc)),
		"origin_bytes_per_req":     per(float64(p.after.originBytes - p.before.originBytes)),
		"disk_write_bytes_per_req": per(float64(dcw)),
		"cpu_us_per_req":           per(float64(p.after.cpu-p.before.cpu) / 1e3),
		"heap_live_mb":             p.heapMB,
	}
}

// pooled returns the count ratios over all passes together, the median
// set-up time of the passes that trained their model, and the tail latency
// over all passes' latency slices. Each pass replays another trace of the
// seed, and one trace's few popular objects (whose sizes decide what fits a
// 256 KB HOC) swing its ratios more than timing noise swings a median.
//
// first_byte_p99_ms is the lower quartile of the slices' p99s. A shared host
// has slow spells lasting seconds to minutes in which wake-ups come late, and
// a spell lifts every slice it covers, so a median over slices still follows
// whichever spells a run met. The lower quartile reads the program's own tail
// unless a spell covers three quarters of the run; the program's periodic
// work recurs in every slice, so it still counts.
func pooled(passes []passResult) map[string]float64 {
	var completed, hoc, originBytes, dcw int64
	var sliceP99 []time.Duration
	for _, p := range passes {
		sliceP99 = append(sliceP99, p.load.sliceP99...)
		completed += int64(p.load.completed)
		hoc += int64(p.load.hoc)
		originBytes += p.after.originBytes - p.before.originBytes
		for i := range p.after.node {
			dcw += p.after.node[i].DCWriteBytes - p.before.node[i].DCWriteBytes
		}
	}
	c := float64(max(completed, 1))
	var setups []float64
	for _, p := range passes {
		if p.setup > 0 {
			setups = append(setups, p.setup.Seconds())
		}
	}
	return map[string]float64{
		"ohr":                      float64(hoc) / c,
		"origin_bytes_per_req":     float64(originBytes) / c,
		"disk_write_bytes_per_req": float64(dcw) / c,
		"setup_s":                  median(setups),
		"first_byte_p99_ms":        percentileMS(sliceP99, 25),
	}
}

// layerCounts returns the per-layer metrics an untraced pass gives: program
// counters and runtime figures over the measured window.
func (p passResult) layerCounts() map[string]float64 {
	b, a := p.before, p.after
	completed := float64(max(p.load.completed, 1))
	var reqs, hoc, dc int64
	for i := range a.node {
		reqs += a.node[i].Requests - b.node[i].Requests
		hoc += a.node[i].HOCHits - b.node[i].HOCHits
		dc += a.node[i].DCHits - b.node[i].DCHits
	}
	ratio := func(x, y int64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	gcFrac := 0.0
	if cpu := a.rt.totalCPU - b.rt.totalCPU; cpu > 0 {
		gcFrac = (a.rt.gcCPU - b.rt.gcCPU) / cpu
	}
	return map[string]float64{
		"runtime.allocs_per_req":       float64(a.rt.mallocs-b.rt.mallocs) / completed,
		"runtime.alloc_bytes_per_req":  float64(a.rt.allocBytes-b.rt.allocBytes) / completed,
		"runtime.gc_cpu_frac":          gcFrac,
		"runtime.sched_latency_p99_us": schedP99(b.rt.sched, a.rt.sched),
		"core.learning_ms":             float64(a.learning-b.learning) / 1e6,
		"core.epochs":                  float64(a.epochs - b.epochs),
		"core.bandit_rounds":           float64(a.rounds - b.rounds),
		"core.expert_switches":         float64(a.switches - b.switches),
		"cache.hoc_hit_ratio":          ratio(hoc, reqs),
		"cache.dc_hit_ratio":           ratio(dc, reqs),
		"server.origin.requests":       float64(a.originReqs - b.originReqs),
		"server.proxy.origin_fetches":  float64(a.proxy.OriginFetches - b.proxy.OriginFetches),
		"server.proxy.retries":         float64(a.proxy.Retries - b.proxy.Retries),
		"server.proxy.coalesced":       float64(a.proxy.Coalesced - b.proxy.Coalesced),
		"server.proxy.hedges":          float64(a.proxy.Hedges - b.proxy.Hedges),
		"server.proxy.shed":            float64(a.proxy.Shed - b.proxy.Shed),
		"server.proxy.errors":          float64(a.proxy.Errors - b.proxy.Errors),
		"diskcache.puts":               float64(a.store.Puts - b.store.Puts),
		"diskcache.removes":            float64(a.store.Removes - b.store.Removes),
		"diskcache.syncs":              float64(a.store.Syncs - b.store.Syncs),
		"diskcache.compactions":        float64(a.store.Compactions - b.store.Compactions),
		"diskcache.log_bytes":          float64(a.store.LogBytes),
		"server.front.failovers":       float64(a.front.Failovers - b.front.Failovers),
		"server.front.no_backend":      float64(a.front.NoBackend - b.front.NoBackend),
		"server.front.replicated":      float64(a.front.Replicated - b.front.Replicated),
		"server.peer.probes":           float64(a.proxy.PeerProbes - b.proxy.PeerProbes),
		"server.peer.fills":            float64(a.proxy.PeerFills - b.proxy.PeerFills),
		"server.peer.errors":           float64(a.proxy.PeerErrors - b.proxy.PeerErrors),
		"server.peer.fill_ratio":       ratio(a.proxy.PeerFills-b.proxy.PeerFills, a.proxy.PeerProbes-b.proxy.PeerProbes),
		"gossip.exchanges":             float64(a.proxy.GossipExchanges - b.proxy.GossipExchanges),
	}
}
