package server

// Front is the cluster's content-aware front tier — the live counterpart of
// the offline lb.Split: an HTTP balancer that routes /obj/ requests over N
// darwin-proxy backends through a consistent-hash ring with bounded loads
// (§2.1's DNS-TTL balancer, re-evaluated every RebalanceEvery requests).
// Three feedback loops close over the ring each window:
//
//   - readiness: a prober polls each backend's /readyz; an unready or
//     breaker-open backend sheds its ring weight at the next window boundary
//     and the bounded-loads spill redistributes its share to ring successors
//     (a SIGTERM drain empties a node's weight within one window).
//   - replication: an lb.Replicator observes per-object request share and
//     widens hot objects over ring successors, so a viral object's traffic
//     spreads instead of saturating its primary — and the successors it
//     lands on are exactly the siblings the backends' peer-fill layer
//     probes, so the copies are warm.
//   - breakers: each backend has a rolling circuit breaker fed by relay
//     outcomes; transport failures fail over to the next distinct ring
//     candidate within the same request.
//
// The routing step (pick) is serialized under one mutex — the ring's window
// state is deliberately single-writer — and is allocation-free, a darwinlint
// hotpath root. Relaying streams through the shared pooled copy buffers
// (relayBody).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/breaker"
	"darwin/internal/gossip"
	"darwin/internal/lb"
	"darwin/internal/stripe"
)

// FrontConfig parameterises the front tier.
type FrontConfig struct {
	// Backends are the darwin-proxy base URLs, in the cluster's shared node
	// order (the same order backends pass to their -peers flag).
	Backends []string
	// VirtualNodes per backend on the ring (default 64).
	VirtualNodes int
	// LoadFactor is the bounded-loads ε (default 0.25).
	LoadFactor float64
	// RebalanceEvery is the routing window length in requests (default
	// 10_000): weights, budgets, and replication factors refresh at every
	// window boundary.
	RebalanceEvery int
	// Replication configures the hot-object tracker (zero = defaults).
	Replication lb.ReplicationConfig
	// Breaker configures the per-backend circuit breaker; zero means
	// DefaultPeerBreaker.
	Breaker breaker.Config
	// Attempts bounds failover: how many distinct ring candidates one
	// request may try (default 3, capped at len(Backends)).
	Attempts int
	// ProbeEvery is the readiness poll period (default 250 ms).
	ProbeEvery time.Duration
	// ProbeTimeout bounds each readiness poll (default ProbeEvery).
	ProbeTimeout time.Duration
	// Client relays requests; nil builds a pooled default.
	Client *http.Client
	// DisableGossip reverts the prober to the binary /readyz verdict. The
	// zero value probes /gossip first: backends that answer it get the
	// graded phi-accrual weight (alive 1, suspect ½, dead 0), and backends
	// that 404/405 it fall back to binary /readyz permanently.
	DisableGossip bool
	// Gossip tunes the failure detector (thresholds, dwell, clock). Nodes
	// and Self (-1: the front is an observer) are overwritten; a nil Clock
	// means time.Now, and HeartbeatEvery defaults to ProbeEvery.
	Gossip gossip.Config
}

// Front-tier stat indexes (stripe counters, same idiom as the proxy's ps*).
const (
	fsRequests       = iota // requests routed
	fsRelayed               // responses streamed back from a backend
	fsFailovers             // relay attempts beyond the first per request
	fsBreakerRejects        // candidates skipped on an open breaker
	fsNoBackend             // requests that exhausted every candidate (502)
	fsReplicated            // requests routed over a widened replica set
	fsWidth
)

// FrontStats is a coherent snapshot of the front tier's counters.
type FrontStats struct {
	// Requests counts routed requests; Relayed counts responses streamed
	// back (Requests - Relayed - NoBackend requests are in flight).
	Requests, Relayed int64
	// Failovers counts relay attempts beyond the first; BreakerRejects
	// counts candidates skipped because their breaker was open.
	Failovers, BreakerRejects int64
	// NoBackend counts requests answered 502 after every candidate failed.
	NoBackend int64
	// Replicated counts requests routed with a replication factor > 1.
	Replicated int64
}

// Front routes client requests over the backend cluster.
type Front struct {
	cfg   FrontConfig
	nodes []string

	// mu serializes the routing step (pick): the ring's window state and the
	// replicator's observation window advance together under it. The ring
	// pointer itself is immutable after NewFront, and Successors reads only
	// construction-time state, so the failover loop walks it lock-free.
	mu   sync.Mutex
	ring *lb.Ring
	rep  *lb.Replicator

	// ready mirrors each backend's last binary probe answer; written by the
	// prober, read (atomically) by the ring's readiness hook at window
	// boundaries. In gossip mode it only matters for backends the detector
	// has never heard from (a backend dead at boot emits no heartbeats, so
	// phi stays 0 and only the binary verdict can shed it).
	ready []atomic.Bool

	// memb is the graded membership view (nil when DisableGossip). The
	// prober feeds it from /gossip answers; the readiness hook reads its
	// weights. gossipOK tracks which backends speak /gossip — a 404/405
	// flips a backend to the binary /readyz path permanently. declined
	// marks a backend whose last probe was an explicit non-200 answer (a
	// drain 503): an answer is a verdict, and sheds immediately, while a
	// transport silence degrades gradually through the detector.
	memb     *gossip.Membership
	gossipOK []atomic.Bool
	declined []atomic.Bool

	// probeTimeouts / probeRefused classify failed probes per backend: a
	// deadline-style failure (the backend exists but is slow or wedged)
	// versus an immediate refusal (nothing is listening). The distinction is
	// an operator's first diagnostic — wedged wants a restart, refused wants
	// a deploy check.
	probeTimeouts []atomic.Int64
	probeRefused  []atomic.Int64

	brks   []*breaker.Breaker
	client *http.Client
	stats  *stripe.Counters
}

// NewFront builds a front tier over the given backends. Call Start to run
// the readiness prober, or drive ProbeOnce manually (tests do).
func NewFront(cfg FrontConfig) (*Front, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("server: front tier needs at least one backend")
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.Attempts > len(cfg.Backends) {
		cfg.Attempts = len(cfg.Backends)
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeEvery
	}
	if cfg.Breaker.Window <= 0 {
		cfg.Breaker = DefaultPeerBreaker()
	}
	f := &Front{
		cfg:           cfg,
		nodes:         cfg.Backends,
		rep:           lb.NewReplicator(cfg.Replication),
		ready:         make([]atomic.Bool, len(cfg.Backends)),
		gossipOK:      make([]atomic.Bool, len(cfg.Backends)),
		declined:      make([]atomic.Bool, len(cfg.Backends)),
		probeTimeouts: make([]atomic.Int64, len(cfg.Backends)),
		probeRefused:  make([]atomic.Int64, len(cfg.Backends)),
		brks:          make([]*breaker.Breaker, len(cfg.Backends)),
		stats:         stripe.New(proxyStatStripes, fsWidth),
	}
	if !cfg.DisableGossip {
		gcfg := cfg.Gossip
		gcfg.Nodes = len(cfg.Backends)
		gcfg.Self = -1 // the front observes; it emits no heartbeats
		if gcfg.Clock == nil {
			gcfg.Clock = time.Now
		}
		if gcfg.HeartbeatEvery <= 0 {
			gcfg.HeartbeatEvery = cfg.ProbeEvery
		}
		m, err := gossip.New(gcfg)
		if err != nil {
			return nil, err
		}
		f.memb = m
	}
	for i := range f.brks {
		f.brks[i] = breaker.New(cfg.Breaker)
		f.ready[i].Store(true)    // optimistic until the first probe says otherwise
		f.gossipOK[i].Store(true) // try /gossip first; 404/405 flips to /readyz
	}
	ring, err := lb.NewRing(lb.Config{
		Servers:        len(cfg.Backends),
		VirtualNodes:   cfg.VirtualNodes,
		LoadFactor:     cfg.LoadFactor,
		RebalanceEvery: cfg.RebalanceEvery,
		Readiness:      f.readiness,
	})
	if err != nil {
		return nil, err
	}
	f.ring = ring
	f.client = cfg.Client
	if f.client == nil {
		f.client = &http.Client{Transport: pooledTransport(defaultIdleConns)}
	}
	return f, nil
}

// readiness is the ring's per-window weight hook. An open breaker always
// sheds everything — live relay failures outrank any probe. Past that, a
// backend the gossip detector has heard from gets the graded verdict: zero
// if its last probe was an explicit non-200 answer (an answer is a verdict —
// a draining backend said "stop"), otherwise the phi-accrual weight (alive
// 1, suspect SuspectWeight, dead 0) — so one slow probe costs a slice of
// ring weight, never the whole keyspace. Backends outside the detector's
// view (gossip disabled, unsupported, or never heard from) get the binary
// /readyz verdict, as before.
func (f *Front) readiness(window, server int) float64 {
	if f.brks[server].State() == breaker.Open {
		return 0
	}
	if f.memb != nil && f.gossipOK[server].Load() && f.memb.Heard(server) {
		if f.declined[server].Load() {
			return 0
		}
		return f.memb.Weight(server)
	}
	if !f.ready[server].Load() {
		return 0
	}
	return 1
}

// Start runs the readiness prober until ctx is cancelled.
func (f *Front) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(f.cfg.ProbeEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				f.ProbeOnce(ctx)
			}
		}
	}()
}

// ProbeOnce polls every backend once and updates the readiness state: a
// /gossip exchange for gossip-speaking backends (digest out, digest in,
// graded verdict), /readyz for the rest. Exported so tests (and the drain
// experiment) can drive probing deterministically instead of racing a
// ticker.
func (f *Front) ProbeOnce(ctx context.Context) {
	for i, n := range f.nodes {
		if f.memb != nil && f.gossipOK[i].Load() {
			switch f.probeGossip(ctx, i, n) {
			case probeOK:
				f.ready[i].Store(true)
				f.declined[i].Store(false)
			case probeDeclined:
				f.ready[i].Store(false)
				f.declined[i].Store(true)
			case probeSilent:
				// No answer says nothing new: the graded detector handles
				// silence, and an earlier explicit decline stays in force (a
				// drained node that then exits must not climb back to
				// suspect weight just because refusals replaced 503s).
				f.ready[i].Store(false)
			case probeUnsupported:
				// The backend answered but doesn't serve /gossip (older
				// build or gossip disabled): binary probing from here on.
				f.gossipOK[i].Store(false)
				f.ready[i].Store(f.probeReadyz(ctx, i, n))
			}
			continue
		}
		f.ready[i].Store(f.probeReadyz(ctx, i, n))
	}
}

// classifyProbeFailure sorts a probe's transport error into the per-backend
// timeout/refused counters: deadline-style failures mean the backend exists
// but is slow or wedged; anything else (connection refused, reset, DNS) is
// counted as a refusal.
func (f *Front) classifyProbeFailure(backend int, err error) {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		f.probeTimeouts[backend].Add(1)
	} else {
		f.probeRefused[backend].Add(1)
	}
}

// probeVerdict is one gossip probe's outcome.
type probeVerdict int

const (
	// probeOK: a clean 200 digest exchange — proof of life, verdict cleared.
	probeOK probeVerdict = iota
	// probeDeclined: an explicit non-200 answer (a drain 503) — an answer is
	// a verdict, and sheds the backend immediately.
	probeDeclined
	// probeSilent: no (usable) answer at all — the graded detector decides.
	probeSilent
	// probeUnsupported: the backend answered 404/405 — it doesn't speak
	// /gossip; fall back to binary /readyz probing.
	probeUnsupported
)

// probeGossip runs one digest exchange with a backend: POST the front's
// observer digest (relaying everything it has heard — the indirect-heartbeat
// path that keeps partitioned-but-alive nodes alive in everyone's view) and
// merge the backend's digest from the answer.
func (f *Front) probeGossip(ctx context.Context, backend int, node string) probeVerdict {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.ProbeTimeout)
	defer cancel()
	out := gossip.AppendDigest(nil, -1, f.memb.Digest(nil))
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/gossip", bytes.NewReader(out))
	if err != nil {
		return probeSilent
	}
	hreq.Header["Content-Type"] = octetStreamValue
	resp, err := f.client.Do(hreq)
	if err != nil {
		f.classifyProbeFailure(backend, err)
		return probeSilent
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxGossipBytes))
		if rerr != nil {
			f.classifyProbeFailure(backend, rerr)
			return probeSilent
		}
		sender, entries, derr := gossip.DecodeDigest(body, nil)
		if derr != nil {
			// Answered garbage: no proof of life, but not a refusal either —
			// let the detector's phi make the call.
			return probeSilent
		}
		f.memb.Merge(sender, entries)
		return probeOK
	case http.StatusNotFound, http.StatusMethodNotAllowed:
		_, _ = io.CopyN(io.Discard, resp.Body, 1<<10)
		return probeUnsupported
	default:
		_, _ = io.CopyN(io.Discard, resp.Body, 1<<10)
		return probeDeclined
	}
}

// probeReadyz reports whether one backend answers /readyz with 200, feeding
// the per-backend failure classification on the way.
func (f *Front) probeReadyz(ctx context.Context, backend int, node string) bool {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.ProbeTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := f.client.Do(hreq)
	if err != nil {
		f.classifyProbeFailure(backend, err)
		return false
	}
	defer resp.Body.Close()
	_, _ = io.CopyN(io.Discard, resp.Body, 1<<10) // best-effort drain so the connection can be reused
	return resp.StatusCode == http.StatusOK
}

// pick routes one request: the ring's bounded-loads choice over the object's
// current replica set, with the replicator observing every request and
// rebalancing at window boundaries. Serialized under mu; allocation-free
// outside window boundaries (a darwinlint hotpath root).
func (f *Front) pick(id uint64) (server int, replicas int) {
	f.mu.Lock()
	replicas = f.rep.Factor(id)
	w := f.ring.Window()
	server = f.ring.RouteReplicated(id, replicas)
	if f.ring.Window() != w {
		// Window boundary crossed: close the replicator's observation window
		// too, so next window's factors reflect last window's shares.
		f.rep.Rebalance()
	}
	f.rep.Observe(id)
	f.mu.Unlock()
	return server, replicas
}

// Window returns the ring's current rebalance window index.
func (f *Front) Window() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Window()
}

// Weights returns the ring's current effective backend weights (after
// readiness shedding) — the front tier's /metrics surface for "who is
// taking traffic".
func (f *Front) Weights() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Weights()
}

// Stats returns a coherent snapshot of the front tier's counters.
func (f *Front) Stats() FrontStats {
	var v [fsWidth]int64
	f.stats.Snapshot(v[:])
	return FrontStats{
		Requests:       v[fsRequests],
		Relayed:        v[fsRelayed],
		Failovers:      v[fsFailovers],
		BreakerRejects: v[fsBreakerRejects],
		NoBackend:      v[fsNoBackend],
		Replicated:     v[fsReplicated],
	}
}

// ReplicationStats fills dst (len >= lb.RsWidth) with the replicator's last
// completed window row.
func (f *Front) ReplicationStats(dst []int64) {
	f.rep.Stats(dst)
}

// Membership exposes the front's graded view of the cluster (nil when
// gossip is disabled).
func (f *Front) Membership() *gossip.Membership { return f.memb }

// ProbeStats returns backend's cumulative probe-failure classification:
// timeouts (the backend exists but is slow or wedged) versus refusals
// (nothing answered at all). The front tier's /metrics surfaces both
// per-backend.
func (f *Front) ProbeStats(backend int) (timeouts, refused int64) {
	if backend < 0 || backend >= len(f.nodes) {
		return 0, 0
	}
	return f.probeTimeouts[backend].Load(), f.probeRefused[backend].Load()
}

// MembershipStatus names backend's current standing for metrics: the graded
// gossip status ("alive", "suspect", "dead"), "declined" when its last probe
// was an explicit non-200 answer, or "binary-ready"/"binary-unready" for
// backends outside the detector's view.
func (f *Front) MembershipStatus(backend int) string {
	if backend < 0 || backend >= len(f.nodes) {
		return "invalid"
	}
	if f.memb != nil && f.gossipOK[backend].Load() && f.memb.Heard(backend) {
		if f.declined[backend].Load() {
			return "declined"
		}
		return f.memb.Status(backend).String()
	}
	if f.ready[backend].Load() {
		return "binary-ready"
	}
	return "binary-unready"
}

// ServeHTTP routes one client request to a backend and streams the response
// back. The ring's pick goes first; on transport failure the request fails
// over to the next distinct ring candidate (at most Attempts), recording
// each outcome in the backend's breaker. An HTTP response of any status is
// relayed — a 502 or shed 503 from a live backend is an answer, not a
// routing failure. A response whose backend body breaks off mid-stream is
// aborted with http.ErrAbortHandler, which net/http's server turns into a
// closed connection.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, size, err := parseObjectURL(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	primary, replicas := f.pick(id)
	f.stats.Add(id, fsRequests, 1)
	if replicas > 1 {
		f.stats.Add(id, fsReplicated, 1)
	}

	// Failover order: the routed backend first, then the object's remaining
	// ring successors (distinct by construction).
	var cand [lb.MaxReplicas]int
	width := f.cfg.Attempts + 1
	if width > len(f.nodes) {
		width = len(f.nodes)
	}
	if width > lb.MaxReplicas {
		width = lb.MaxReplicas
	}
	k := f.ring.Successors(id, cand[:width])
	tried := 0
	for i := -1; i < k && tried < f.cfg.Attempts; i++ {
		var node int
		if i < 0 {
			node = primary
		} else {
			node = cand[i]
			if node == primary {
				continue
			}
		}
		if !f.brks[node].Allow() {
			f.stats.Add(id, fsBreakerRejects, 1)
			continue
		}
		if tried > 0 {
			f.stats.Add(id, fsFailovers, 1)
		}
		tried++
		if started, cut := f.relay(w, r, node, id, size); started {
			f.stats.Add(id, fsRelayed, 1)
			if cut {
				// The status line is already out: only a dropped connection
				// stops a short body passing for a whole one (a chunked
				// response would otherwise end cleanly).
				panic(http.ErrAbortHandler)
			}
			return
		}
	}
	f.stats.Add(id, fsNoBackend, 1)
	http.Error(w, "front: no backend available", http.StatusBadGateway)
}

// relay forwards the request to one backend and, if the backend answers
// HTTP at all, streams the response to the client. started is false only on
// transport-level failure (connection refused/reset, deadline), in which
// case nothing has been written and the caller may fail over; cut reports a
// started response whose backend body failed before its end.
//
// The breaker outcome is recorded after the body copy, so a backend that
// answers a clean status line and then truncates is charged like one that
// refuses. A failed client write (the client hung up) and a backend request
// cancelled with the client's say nothing about the backend and record as
// healthy — the rule peer probes apply to client cancellation.
func (f *Front) relay(w http.ResponseWriter, r *http.Request, node int, id uint64, size int64) (started, cut bool) {
	hreq, err := http.NewRequestWithContext(r.Context(), http.MethodGet, originURL(f.nodes[node], id, size), nil)
	if err != nil {
		f.brks[node].Record(false)
		return false, false
	}
	// Propagate the client's deadline advertisement so backend deadline
	// shedding still works behind the front tier.
	if dl := r.Header[DeadlineHeader]; len(dl) > 0 {
		hreq.Header[DeadlineHeader] = dl
	}
	resp, err := f.client.Do(hreq)
	if err != nil {
		f.brks[node].Record(r.Context().Err() != nil)
		return false, false
	}
	defer resp.Body.Close()

	h := w.Header()
	for _, key := range relayHeaders {
		if v := resp.Header[key]; len(v) > 0 {
			h[key] = v
		}
	}
	w.WriteHeader(resp.StatusCode)
	cut = relayBody(w, resp.Body) != nil
	// Any complete HTTP answer means the backend is alive: a 502 is the
	// shared origin's trouble and a shed 503 is deliberate — neither should
	// charge this backend's breaker. A 500 (the backend itself broke) and a
	// body the backend cut off mid-stream do.
	f.brks[node].Record(resp.StatusCode != http.StatusInternalServerError &&
		(!cut || r.Context().Err() != nil))
	return true, cut
}

// relayHeaders are the backend response headers the front tier propagates to
// clients (pre-canonicalized keys for direct map indexing).
var relayHeaders = []string{
	"Content-Type",
	"Content-Length",
	"X-Cache",
	PeerHeader,
	ShedHeader,
	"Warning",
	"Retry-After",
}
