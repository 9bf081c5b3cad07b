// Package server is the reproduction's ATS-like prototype (§5): an HTTP
// caching proxy whose Hot Object Cache admission is driven by a pluggable
// decider (a static expert, any baseline, or Darwin's online controller), an
// origin server with injected WAN latency, and a closed-loop load generator
// measuring first-byte latency and application throughput (§6.4).
//
// The request path mirrors the paper's testbed shape: an HOC hit is served
// straight from memory; a DC hit pays a configurable disk-access latency; a
// miss pays a round trip to the origin, which itself delays each response by
// the injected origin RTT. Cache-state concurrency is the decider's problem:
// a concurrency-safe decider (one backed by the sharded cache engine, which
// stripes the object space across per-shard mutexes) runs shard-parallel,
// while any other decider is transparently wrapped in a single global mutex —
// the HOC lock contention the paper observes at high concurrency, kept as the
// comparison arm. Either way the critical sections cover only decider calls,
// never body writes or origin I/O, and the proxy's own data-plane counters
// live in lock-striped cells so Stats reads are coherent and lock-free.
//
// The proxy has one data plane. Every client request runs the same stages:
//
//  1. admission: over Overload.MaxInFlight concurrent requests, shed (stale
//     or 503+Retry-After) before any cache or origin work;
//  2. client deadline: with Overload.PropagateDeadline, the DeadlineHeader
//     becomes the request context's deadline;
//  3. residency: the decider's Lookup probes without mutating the cache; a
//     hit commits through Serve and is answered from memory (or disk);
//  4. miss: shed a doomed miss whose deadline cannot cover a fetch, try the
//     ring siblings (peer fill), then fetch from the origin — coalesced
//     (Resilience.Coalesce), retried with jittered backoff
//     (Resilience.MaxAttempts), hedged (Overload.Hedge) and gated by the
//     circuit breaker and retry budget (Overload.Breaker);
//  5. outcome: a validated fetch commits through Serve and is answered; a
//     failed one is shed (open breaker, expired client deadline), answered
//     stale (Resilience.ServeStale), or answered 502.
//
// Each stage is off at its own field's zero value, so Resilience{} with
// Overload{} is the paper's happy-path testbed (one validated origin fetch
// per miss) and DefaultResilience with DefaultOverload is the deployed plane.
// Commit-after-fetch holds in every configuration: a failed fetch is
// accounted as a proxy error, never as a cache admission, so origin faults
// cannot corrupt the decider's view of what is resident.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/breaker"
	"darwin/internal/cache"
	"darwin/internal/stripe"
	"darwin/internal/trace"
)

// Origin is the content provider's origin server: it serves any object of
// any requested size after an injected WAN delay.
type Origin struct {
	// Latency is the injected delay per request (the paper injects 100 ms
	// between proxy and origin; tests use smaller values).
	Latency time.Duration
	// requests/bytes count served work (midgress accounting). Atomics, so
	// high-concurrency request accounting never serializes handlers.
	requests atomic.Int64
	bytes    atomic.Int64
}

// account records one served request of the given size.
func (o *Origin) account(size int64) {
	o.requests.Add(1)
	o.bytes.Add(size)
}

// ServeHTTP implements http.Handler for GET /obj/<id>?size=<bytes>.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, size, err := parseObjectURL(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if o.Latency > 0 {
		time.Sleep(o.Latency)
	}
	o.account(size)
	h := w.Header()
	setContentType(h)
	setContentLength(h, size)
	w.WriteHeader(http.StatusOK)
	_ = writeBody(w, size) // client went away; nothing useful to do with the error
}

// Stats returns the origin's served request and byte counts (midgress).
func (o *Origin) Stats() (requests, bytes int64) {
	return o.requests.Load(), o.bytes.Load()
}

// parseObjectURL extracts (id, size) from /obj/<id>?size=<n>. It is the
// first step of every request, so the query parameter is scanned in place:
// r.URL.Query() materializes a url.Values map (two allocations plus the
// string copies) per call, where the common "size=<digits>" form needs none.
func parseObjectURL(r *http.Request) (uint64, int64, error) {
	const prefix = "/obj/"
	path := r.URL.Path
	if len(path) <= len(prefix) || path[:len(prefix)] != prefix {
		return 0, 0, fmt.Errorf("server: bad path %q", path)
	}
	id, err := strconv.ParseUint(path[len(prefix):], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("server: bad object id: %v", err)
	}
	raw := sizeParam(r.URL.RawQuery)
	size, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || size < 0 {
		return 0, 0, fmt.Errorf("server: bad size %q", raw)
	}
	return id, size, nil
}

// sizeParam returns the first "size" value in rawQuery, decoded. The common
// case — a plain decimal value — is returned as a zero-allocation substring;
// values carrying query escapes take the url.QueryUnescape slow path so the
// accepted language matches what url.Values.Get would have produced ('+' is
// a space, %XX decodes, malformed escapes reject the request).
func sizeParam(rawQuery string) string {
	for len(rawQuery) > 0 {
		seg := rawQuery
		if i := strings.IndexByte(seg, '&'); i >= 0 {
			seg, rawQuery = seg[:i], rawQuery[i+1:]
		} else {
			rawQuery = ""
		}
		val, ok := strings.CutPrefix(seg, "size=")
		if !ok {
			continue
		}
		if strings.IndexByte(val, '%') < 0 && strings.IndexByte(val, '+') < 0 {
			return val
		}
		dec, err := url.QueryUnescape(val)
		if err != nil {
			return "" // malformed escape: reject, like url.ParseQuery would
		}
		return dec
	}
	return ""
}

// Decider is the cache-management brain plugged into the proxy: a static
// expert, a learned baseline, or Darwin's online controller.
type Decider interface {
	// Serve accounts one request and decides where it is served from.
	Serve(r trace.Request) cache.Result
	Lookuper
	// Metrics exposes accumulated cache metrics.
	Metrics() cache.Metrics
	// Name labels the scheme.
	Name() string
}

// Lookuper is the decider's residency probe: it mutates no cache state,
// metrics, or frequency tracking. The proxy probes before an origin fetch
// and commits the request through Serve only after the fetch succeeds, so a
// failed fetch cannot leave a phantom admission in the cache (the decider
// believing an object is DC-resident whose bytes never arrived).
type Lookuper interface {
	Lookup(id uint64) cache.Result
}

// serializedDecider adapts a decider that is not safe for concurrent callers
// (anything that does not advertise Concurrent() == true, e.g. a baseline
// over a bare Hierarchy) by serializing every call under one global mutex —
// the global-lock arrangement, kept as the sharded engine's comparison arm.
type serializedDecider struct {
	mu sync.Mutex
	// dec is the wrapped decider; guarded by mu.
	dec Decider
}

func (s *serializedDecider) Serve(r trace.Request) cache.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dec.Serve(r)
}

func (s *serializedDecider) Lookup(id uint64) cache.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dec.Lookup(id)
}

func (s *serializedDecider) Metrics() cache.Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dec.Metrics()
}

func (s *serializedDecider) Name() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dec.Name()
}

// Resilience configures the proxy's fault-tolerance stages. The zero value
// turns them all off: one origin fetch per miss, no coalescing, no stale
// serves.
type Resilience struct {
	// MaxAttempts is the total origin fetch attempts per miss (<= 1 = no
	// retry).
	MaxAttempts int
	// FetchTimeout bounds each attempt (headers + full body); 0 leaves only
	// the client's deadline and the HTTP client's own timeout.
	FetchTimeout time.Duration
	// BackoffBase is the pre-jitter backoff before the first retry; it
	// doubles per retry up to BackoffMax (default 5ms).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// Coalesce enables single-flight coalescing of concurrent misses.
	Coalesce bool
	// ServeStale enables degraded mode: when the origin stays down after
	// retries, a previously-served object is answered stale instead of 502.
	ServeStale bool
	// StaleCap bounds the remembered-object set (default 64k entries).
	StaleCap int
	// Seed drives the backoff jitter.
	Seed int64
}

// DefaultResilience returns the hardened defaults used by cmd/darwin-proxy
// and the chaos experiment: 4 attempts, 2 s per-attempt deadline, 5 ms base
// backoff capped at 250 ms, coalescing and serve-stale on.
func DefaultResilience() Resilience {
	return Resilience{
		MaxAttempts:  4,
		FetchTimeout: 2 * time.Second,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   250 * time.Millisecond,
		Coalesce:     true,
		ServeStale:   true,
		StaleCap:     64 << 10,
		Seed:         1,
	}
}

// withDefaults fills the knobs whose zero value is not a stage switch.
func (res Resilience) withDefaults() Resilience {
	if res.MaxAttempts <= 0 {
		res.MaxAttempts = 1
	}
	if res.BackoffBase <= 0 {
		res.BackoffBase = 5 * time.Millisecond
	}
	if res.StaleCap <= 0 {
		res.StaleCap = 64 << 10
	}
	return res
}

// Stripe-cell indexes for the proxy's data-plane counters.
const (
	psOriginFetches = iota
	psRetries
	psFetchFailures
	psCoalesced
	psStaleServes
	psErrors
	psShed
	psDeadlineSheds
	psBreakerRejects
	psHedges
	psHedgeWins
	psRetryBudgetDenied
	psPeerProbes
	psPeerFills
	psPeerErrors
	psPeerRejects
	psPeerServed
	psPeerSkipsDead
	psGossipExchanges
	psStateMerges
	psStateRejects
	psStatePushes
	psWidth
)

// proxyStatStripes is the stripe count for the proxy counters: enough to
// keep unrelated objects off each other's mutex at high concurrency, small
// enough that a Stats snapshot stays a handful of cache lines.
const proxyStatStripes = 32

// ProxyStats is a snapshot of the proxy's data-plane counters.
type ProxyStats struct {
	// OriginFetches counts fetch attempts sent to the origin.
	OriginFetches int64
	// Retries counts attempts beyond the first per miss.
	Retries int64
	// FetchFailures counts misses that exhausted every attempt.
	FetchFailures int64
	// Coalesced counts requests that piggybacked on another request's fetch.
	Coalesced int64
	// StaleServes counts degraded-mode responses.
	StaleServes int64
	// Errors counts client-visible 5xx responses issued by this proxy.
	Errors int64
	// Shed counts requests the overload layer refused to do full work for
	// (admission, breaker, or deadline sheds — answered stale or 503).
	Shed int64
	// DeadlineSheds counts misses shed because the client's remaining
	// deadline could not cover a fetch (a subset of Shed).
	DeadlineSheds int64
	// BreakerRejects counts fetch attempts denied by the open circuit
	// breaker (no origin traffic was generated for them).
	BreakerRejects int64
	// Hedges counts hedged second fetches launched; HedgeWins counts hedges
	// that answered before the primary fetch.
	Hedges, HedgeWins int64
	// RetryBudgetDenied counts retries suppressed by the rolling-window
	// retry budget (the anti-retry-storm cap).
	RetryBudgetDenied int64
	// PeerProbes counts probes sent to ring siblings; PeerFills counts
	// misses answered by a sibling instead of the origin; PeerErrors counts
	// failed probes (transport errors, bad statuses, truncated bodies);
	// PeerRejects counts probes suppressed by an open sibling breaker.
	PeerProbes, PeerFills, PeerErrors, PeerRejects int64
	// PeerServed counts sibling probes this node answered with a hit.
	PeerServed int64
	// PeerSkipsDead counts probes suppressed because the gossip layer
	// graded the designated holder Dead.
	PeerSkipsDead int64
	// GossipExchanges counts /gossip requests answered.
	GossipExchanges int64
	// StateMerges counts donor checkpoint frames accepted on /state;
	// StateRejects counts frames refused by validation (the inheritor's
	// state was untouched); StatePushes counts drain-time frames this node
	// delivered to its ring successor.
	StateMerges, StateRejects, StatePushes int64
}

// Proxy is the CDN edge server.
type Proxy struct {
	// decider drives HOC/DC decisions. It is always safe for concurrent
	// callers: deciders advertising Concurrent() == true (the sharded cache
	// engine and the online controller over it) are used directly and run
	// shard-parallel; anything else is wrapped in a serializedDecider at
	// construction. The critical sections cover only decider calls, never
	// origin I/O or body writes.
	decider Decider

	// OriginURL is the origin base URL (e.g. http://127.0.0.1:9000).
	OriginURL string
	// DCLatency is the injected disk-read delay for DC hits.
	DCLatency time.Duration
	// Client issues origin fetches.
	Client *http.Client
	// transport is the proxy's one connection pool, shared by the default
	// origin, peer-probe and state-handoff clients.
	transport *http.Transport

	res     Resilience
	flights flightGroup

	// ov is the overload-protection configuration; brk gates origin fetch
	// attempts and retryBudget caps the backoff path (each nil when off).
	// Both publish through seqlock cells, so readiness and stats reads never
	// touch the data plane's locks.
	ov          Overload
	brk         *breaker.Breaker
	retryBudget *breaker.Budget
	// inflight gauges admitted requests for the bounded-in-flight budget.
	inflight atomic.Int64

	// stale remembers objects the proxy has successfully served, bounded by
	// res.StaleCap — the prototype's serve-stale store (bodies are
	// deterministic, so only membership must be remembered).
	staleMu sync.Mutex
	stale   map[uint64]int64 // guarded by staleMu

	// peers is the cluster's peer-fill layer (peer.go); nil outside a
	// cluster. Immutable after SetPeers.
	peers *peerSet

	// handoff wires /state to the binary's checkpoint codec (zero when the
	// drain-time handoff is not enabled).
	handoff StateHandoff

	rngMu sync.Mutex
	rng   *rand.Rand // guarded by rngMu; retry jitter only

	// stats holds the data-plane counters (ps* indexes), striped by object
	// id so concurrent handlers never contend on one counter line and Stats
	// snapshots are coherent without a global lock.
	stats *stripe.Counters

	start time.Time
}

// defaultIdleConns is the idle connections kept per upstream host when no
// in-flight bound sizes the pool.
const defaultIdleConns = 256

// pooledTransport returns a connection pool keeping up to idle connections
// per upstream host. Compression is off: object bodies are opaque bytes whose
// Content-Length the proxy checks and the front relays as sent.
func pooledTransport(idle int) *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: idle, DisableCompression: true}
}

// NewOverloadProxy builds a proxy around decider running the one data plane
// (see the package doc) with the stages res and ov switch on.
func NewOverloadProxy(decider Decider, originURL string, dcLatency time.Duration, res Resilience, ov Overload) *Proxy {
	res = res.withDefaults()
	ov = ov.withDefaults()
	dec := decider
	if c, ok := decider.(interface{ Concurrent() bool }); !ok || !c.Concurrent() {
		// Not advertised concurrency-safe: serialize it under one global
		// mutex.
		dec = &serializedDecider{dec: decider}
	}
	// Keep one idle connection per request the proxy may have in flight:
	// net/http's default of 2 per host makes every burst of concurrent
	// misses redial the origin.
	idle := int(ov.MaxInFlight)
	if idle <= 0 {
		idle = defaultIdleConns
	}
	tport := pooledTransport(idle)
	p := &Proxy{
		decider:   dec,
		OriginURL: originURL,
		DCLatency: dcLatency,
		Client:    &http.Client{Timeout: 30 * time.Second, Transport: tport},
		transport: tport,
		res:       res,
		ov:        ov,
		rng:       rand.New(rand.NewSource(res.Seed)),
		stats:     stripe.New(proxyStatStripes, psWidth),
		start:     time.Now(),
	}
	var clock func() time.Time
	if ov.Breaker != nil {
		p.brk = breaker.New(*ov.Breaker)
		clock = ov.Breaker.Clock
	}
	if ov.RetryBudget > 0 {
		p.retryBudget = breaker.NewBudget(ov.RetryBudget, ov.RetryBudgetWindow, clock)
	}
	return p
}

// Metrics returns the decider's cache metrics (thread-safe: the decider is
// either concurrency-safe itself — sharded engines answer from lock-free
// per-shard snapshots — or wrapped in the serializing adapter). Deciders with
// deferred counter publication are synced first so the read is exact.
func (p *Proxy) Metrics() cache.Metrics {
	if s, ok := p.decider.(interface{ SyncMetrics() }); ok {
		s.SyncMetrics()
	}
	return p.decider.Metrics()
}

// Stats returns a coherent snapshot of the proxy's data-plane counters:
// every stripe is observed at one consistent instant, so counters bumped
// together for one request (e.g. a fetch failure and its final retry) are
// never seen torn. The read is lock-free and never stalls handlers.
func (p *Proxy) Stats() ProxyStats {
	var v [psWidth]int64
	p.stats.Snapshot(v[:])
	return ProxyStats{
		OriginFetches:     v[psOriginFetches],
		Retries:           v[psRetries],
		FetchFailures:     v[psFetchFailures],
		Coalesced:         v[psCoalesced],
		StaleServes:       v[psStaleServes],
		Errors:            v[psErrors],
		Shed:              v[psShed],
		DeadlineSheds:     v[psDeadlineSheds],
		BreakerRejects:    v[psBreakerRejects],
		Hedges:            v[psHedges],
		HedgeWins:         v[psHedgeWins],
		RetryBudgetDenied: v[psRetryBudgetDenied],
		PeerProbes:        v[psPeerProbes],
		PeerFills:         v[psPeerFills],
		PeerErrors:        v[psPeerErrors],
		PeerRejects:       v[psPeerRejects],
		PeerServed:        v[psPeerServed],
		PeerSkipsDead:     v[psPeerSkipsDead],
		GossipExchanges:   v[psGossipExchanges],
		StateMerges:       v[psStateMerges],
		StateRejects:      v[psStateRejects],
		StatePushes:       v[psStatePushes],
	}
}

// ServeHTTP implements http.Handler for GET /obj/<id>?size=<n>: the
// admission and client-deadline stages, then serveObject.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, size, err := parseObjectURL(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req := trace.Request{ID: id, Size: size, Time: time.Since(p.start).Microseconds()}
	if p.peers != nil {
		if isPeerProbe(r) {
			// A sibling's probe: answered from memory or 404, before the
			// overload machinery — the probe path is strictly cheaper than
			// the admission work that would guard it, and must never recurse
			// into peer or origin fetches (loop guard).
			p.servePeerProbe(w, r, req)
			return
		}
		// Client traffic feeds the replication tracker (probes don't: the
		// prober already counted the request), so the designated-holder map
		// mirrors what the front tier's replicator sees.
		p.peers.observe(id)
	}
	if p.ov.MaxInFlight > 0 {
		// Admission control runs before any cache or origin work: a request
		// over the in-flight budget is shed for pennies (stale or 503) so
		// overload never turns into an unbounded queue of doomed work.
		n := p.inflight.Add(1)
		defer p.inflight.Add(-1)
		if n > p.ov.MaxInFlight {
			p.shed(w, req, "inflight")
			return
		}
	}
	if ctx, cancel := p.deadlineCtx(r); cancel != nil {
		defer cancel()
		r = r.WithContext(ctx)
	}
	p.serveObject(w, r, req)
}

// serveLocal answers a request from the proxy itself (cache hits, committed
// misses, stale serves), paying the DC delay for disk hits. It is the
// serve-hit fast path (a darwinlint hotpath root): pre-serialized headers
// and the shared static body chunk keep it at zero allocations per request
// above net/http's own internals.
func (p *Proxy) serveLocal(w http.ResponseWriter, res cache.Result, size int64) {
	if res == cache.DCHit && p.DCLatency > 0 {
		time.Sleep(p.DCLatency)
	}
	h := w.Header()
	setContentType(h)
	setContentLength(h, size)
	w.WriteHeader(http.StatusOK)
	_ = writeBody(w, size) // client went away; nothing useful to do with the error
}

// serveObject probes residency without mutating the cache, fills a miss
// from a ring sibling or the origin, and commits the request through the
// decider only once the bytes are known good.
func (p *Proxy) serveObject(w http.ResponseWriter, r *http.Request, req trace.Request) {
	if p.decider.Lookup(req.ID) != cache.Miss {
		p.commit(w, req)
		return
	}

	// Deadline-aware shedding: a miss whose remaining client deadline cannot
	// cover a fetch is doomed work — answer it cheaply now (stale or 503)
	// instead of queueing a fetch the client will never see complete.
	if p.doomed(r.Context()) {
		p.stats.Add(req.ID, psDeadlineSheds, 1)
		p.shed(w, req, "deadline")
		return
	}

	// Peer fill: before paying the origin hop, ask the ring siblings the
	// front tier would have routed this object to. A validated sibling copy
	// commits through the decider exactly like a successful origin fetch —
	// the admit is journaled and the object becomes locally resident.
	// (Requests carrying the probe header never reach this path, so a
	// two-node cycle terminates after one hop.)
	if p.peers != nil && p.fetchPeer(r.Context(), req.ID, req.Size) {
		w.Header()[PeerHeader] = peerFillValue
		p.commit(w, req)
		return
	}

	err := p.fetchResilient(r.Context(), req.ID, req.Size)
	if err == nil {
		p.commit(w, req)
		return
	}

	// Shed outcomes: an open breaker or an expired client deadline is not an
	// origin failure to 502 on, it is load the overload layer refused — shed
	// it (stale or 503+Retry-After) so the client backs off instead of
	// retrying into the same wall. Only the client's own deadline counts: a
	// per-attempt FetchTimeout expiry also wraps DeadlineExceeded, but it is
	// an origin failure.
	switch {
	case errors.Is(err, breaker.ErrOpen):
		p.shed(w, req, "breaker")
		return
	case errors.Is(err, context.DeadlineExceeded) && deadlinePassed(r.Context()):
		p.stats.Add(req.ID, psDeadlineSheds, 1)
		p.shed(w, req, "deadline")
		return
	}

	// Degraded mode: the origin is down and retries are exhausted. Serve the
	// object stale if this proxy has ever served it, else surface the 502.
	// The request is accounted as a proxy error, not as a cache admission.
	if p.serveStale(w, req) {
		return
	}
	p.stats.Add(req.ID, psErrors, 1)
	http.Error(w, fmt.Sprintf("server: origin unavailable: %v", err), http.StatusBadGateway)
}

// commit accounts a request whose bytes are in hand (resident, or just
// fetched) through the decider and answers it. After a fetch a coalesced
// peer may have admitted the object already, in which case Serve reports the
// hit it found.
func (p *Proxy) commit(w http.ResponseWriter, req trace.Request) {
	res := p.decider.Serve(req)
	setXCache(w.Header(), res)
	p.serveLocal(w, res, req.Size)
	p.rememberStale(req.ID, req.Size)
}

// serveStale answers req from the serve-stale store, reporting false when
// degraded mode is off or the proxy has never served the object.
func (p *Proxy) serveStale(w http.ResponseWriter, req trace.Request) bool {
	if !p.res.ServeStale {
		return false
	}
	if _, ok := p.staleHas(req.ID); !ok {
		return false
	}
	p.stats.Add(req.ID, psStaleServes, 1)
	h := w.Header()
	h["X-Cache"] = xcacheStale
	h.Set("Warning", `110 darwin-proxy "response is stale"`)
	p.serveLocal(w, cache.HOCHit, req.Size)
	return true
}

// rememberStale records a successfully served object for degraded mode.
func (p *Proxy) rememberStale(id uint64, size int64) {
	if !p.res.ServeStale {
		return
	}
	p.staleMu.Lock()
	defer p.staleMu.Unlock()
	if p.stale == nil {
		p.stale = make(map[uint64]int64)
	}
	if _, ok := p.stale[id]; !ok && len(p.stale) >= p.res.StaleCap {
		for k := range p.stale { // evict an arbitrary entry to stay bounded
			delete(p.stale, k)
			break
		}
	}
	p.stale[id] = size
}

// staleHas reports whether the proxy has served id before.
func (p *Proxy) staleHas(id uint64) (int64, bool) {
	p.staleMu.Lock()
	defer p.staleMu.Unlock()
	size, ok := p.stale[id]
	return size, ok
}

// fetchResilient fetches one object with coalescing and retries. Coalesced
// fetches run under a detached context: their outcome is shared by every
// waiter, so they must not die with the leader's client connection. The
// detached fetch keeps the leader's propagated *deadline* (but not its
// cancellation), so a doomed shared fetch is still cut short, and waiters
// stop waiting when their own deadline expires.
func (p *Proxy) fetchResilient(ctx context.Context, id uint64, size int64) error {
	if !p.res.Coalesce {
		return p.fetchRetry(ctx, id, size)
	}
	err, shared := p.flights.do(ctx, flightKey{id: id, size: size}, func() error {
		fctx := context.Background()
		if dl, ok := ctx.Deadline(); ok {
			dctx, cancel := context.WithDeadline(fctx, dl)
			defer cancel()
			fctx = dctx
		}
		return p.fetchRetry(fctx, id, size)
	})
	if shared {
		p.stats.Add(id, psCoalesced, 1)
	}
	return err
}

// fetchRetry runs up to MaxAttempts origin fetches with exponential backoff
// and jitter between attempts. With a breaker every attempt must pass it (an
// open breaker fails the miss immediately with ErrOpen), and with a retry
// budget every attempt beyond the first must win a token from it — the cap
// that keeps the backoff path from probing a sick origin harder than the
// breaker's half-open budget.
func (p *Proxy) fetchRetry(ctx context.Context, id uint64, size int64) error {
	var lastErr error
	for attempt := 0; attempt < p.res.MaxAttempts; attempt++ {
		if attempt > 0 {
			if p.retryBudget != nil && !p.retryBudget.Allow() {
				p.stats.Add(id, psRetryBudgetDenied, 1)
				break
			}
			p.stats.Add(id, psRetries, 1)
			if err := sleepCtx(ctx, p.backoff(attempt)); err != nil {
				break
			}
		}
		if p.brk != nil && !p.brk.Allow() {
			p.stats.Add(id, psBreakerRejects, 1)
			lastErr = breaker.ErrOpen
			break
		}
		p.stats.Add(id, psOriginFetches, 1)
		err := p.fetchMaybeHedged(ctx, id, size)
		if p.brk != nil {
			p.brk.Record(err == nil)
		}
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		return nil
	}
	p.stats.Add(id, psFetchFailures, 1)
	return lastErr
}

// backoff returns the pre-retry delay for the given attempt (1-based):
// exponential with "equal jitter" (half fixed, half uniform) so synchronized
// retry storms against a recovering origin desynchronize.
func (p *Proxy) backoff(attempt int) time.Duration {
	d := p.res.BackoffBase << (attempt - 1)
	if p.res.BackoffMax > 0 && d > p.res.BackoffMax {
		d = p.res.BackoffMax
	}
	p.rngMu.Lock()
	j := time.Duration(p.rng.Int63n(int64(d)/2 + 1))
	p.rngMu.Unlock()
	return d/2 + j
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// fetchDiscard performs one origin fetch under a per-attempt deadline,
// consuming and validating the full body without buffering it: bodies are
// deterministic, so the proxy regenerates them for clients. A non-200
// status, a transport error, or a short body (mid-stream truncation) all
// count as a failed attempt and are retried.
func (p *Proxy) fetchDiscard(ctx context.Context, id uint64, size int64) error {
	if p.res.FetchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.res.FetchTimeout)
		defer cancel()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, originURL(p.OriginURL, id, size), nil)
	if err != nil {
		return fmt.Errorf("server: origin request: %w", err)
	}
	resp, err := p.Client.Do(hreq)
	if err != nil {
		return fmt.Errorf("server: origin fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.CopyN(io.Discard, resp.Body, 1<<10) // best-effort drain so the connection can be reused
		return fmt.Errorf("server: origin status %d", resp.StatusCode)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return fmt.Errorf("server: origin body after %d/%d bytes: %w", n, size, err)
	}
	if n != size {
		return fmt.Errorf("server: origin body truncated: %d/%d bytes", n, size)
	}
	return nil
}
