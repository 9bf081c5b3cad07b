package main

import (
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/server"
	"darwin/internal/trace"
)

// layer names the boundary a span was recorded at. Every wrapper below sits
// on a public seam of the program; the program itself is unchanged.
type layer uint8

const (
	lClient      layer = iota // load generator: request sent → body read
	lFront                    // front tier /obj/ handler
	lProxy                    // node /obj/ handler, client traffic
	lProbeIn                  // node /obj/ handler answering a sibling's probe
	lCoreServe                // core.Controller.Serve
	lCoreLookup               // core.Controller.Lookup
	lCacheServe               // cache engine Serve (under the controller)
	lCacheLookup              // cache engine Lookup
	lFetch                    // proxy → origin round trip, body included
	lPeer                     // proxy → sibling probe round trip, body included
	lOrigin                   // origin handler
	lDiskPut                  // DC journal Put
	lDiskRemove               // DC journal Remove
	nLayers
)

// span is one timed call at a layer boundary. Spans of one request share the
// object id; start and end are nanoseconds since the recorder's base.
type span struct {
	start, end int64
	id         uint64
	layer      layer
	node       int8
}

// recorder keeps every span of a traced pass in memory, plus the httptrace
// counters of the origin fetch path.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	spans []span // guarded by mu

	connWaitNS atomic.Int64 // origin fetches: GetConn → GotConn
	connWaits  atomic.Int64
	dials      atomic.Int64 // origin fetches: new connections dialled
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(l layer, node int, id uint64, start int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{start: start, end: end, id: id, layer: l, node: int8(node)})
	r.mu.Unlock()
}

// reset drops everything recorded so far (the warm-up's spans and counts).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
	r.connWaitNS.Store(0)
	r.connWaits.Store(0)
	r.dials.Store(0)
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// objectID extracts the id from an /obj/<id> path; 0 for anything else.
func objectID(path string) uint64 {
	rest, ok := strings.CutPrefix(path, "/obj/")
	if !ok {
		return 0
	}
	id, _ := strconv.ParseUint(rest, 10, 64) // a malformed id is the program's to reject
	return id
}

// tracedHandler times an http.Handler (front, node mux or origin).
type tracedHandler struct {
	h     http.Handler
	rec   *recorder
	layer layer
	node  int
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l := t.layer
	if l == lProxy && len(r.Header[server.PeerHopHeader]) > 0 {
		l = lProbeIn
	}
	start := t.rec.now()
	t.h.ServeHTTP(w, r)
	t.rec.add(l, t.node, objectID(r.URL.Path), start)
}

// decider is what the proxy needs from core.Controller for its concurrent,
// probe-then-commit data plane.
type decider interface {
	server.Decider
	server.Lookuper
	Concurrent() bool
}

// syncer is the exact-metrics seam of batched counter publication.
type syncer interface{ SyncMetrics() }

// The traced wrappers must keep the optional seams the program type-asserts
// for. Without Concurrent the proxy serialises the decider under one global
// lock; without Lookup it falls back to decide-first ordering; without the
// engine's SyncMetrics the controller's round-boundary metrics trail by up to
// publishEvery-1 requests per shard. (The controller syncs its engine
// itself, so the decider has no SyncMetrics to forward.)
var (
	_ decider                = (*core.Controller)(nil)
	_ decider                = (*tracedDecider)(nil)
	_ cache.ConcurrentEngine = (*cache.Sharded)(nil)
	_ syncer                 = (*cache.Sharded)(nil)
	_ cache.ConcurrentEngine = (*tracedEngine)(nil)
	_ syncer                 = (*tracedEngine)(nil)
	_ cache.DCLog            = (*tracedLog)(nil)
)

// tracedDecider times the controller's Serve and Lookup.
type tracedDecider struct {
	d    decider
	rec  *recorder
	node int
}

func (t *tracedDecider) Serve(r trace.Request) cache.Result {
	start := t.rec.now()
	res := t.d.Serve(r)
	t.rec.add(lCoreServe, t.node, r.ID, start)
	return res
}

func (t *tracedDecider) Lookup(id uint64) cache.Result {
	start := t.rec.now()
	res := t.d.Lookup(id)
	t.rec.add(lCoreLookup, t.node, id, start)
	return res
}

func (t *tracedDecider) Metrics() cache.Metrics { return t.d.Metrics() }
func (t *tracedDecider) Name() string           { return t.d.Name() }
func (t *tracedDecider) Concurrent() bool       { return t.d.Concurrent() }

// engine is the sharded engine's surface: the cache.Engine the controller
// drives plus the seams it type-asserts for.
type engine interface {
	cache.ConcurrentEngine
	syncer
}

// tracedEngine times the cache engine under the controller.
type tracedEngine struct {
	e    engine
	rec  *recorder
	node int
}

func (t *tracedEngine) Serve(r trace.Request) cache.Result {
	start := t.rec.now()
	res := t.e.Serve(r)
	t.rec.add(lCacheServe, t.node, r.ID, start)
	return res
}

func (t *tracedEngine) Lookup(id uint64) cache.Result {
	start := t.rec.now()
	res := t.e.Lookup(id)
	t.rec.add(lCacheLookup, t.node, id, start)
	return res
}

func (t *tracedEngine) Metrics() cache.Metrics   { return t.e.Metrics() }
func (t *tracedEngine) ResetMetrics()            { t.e.ResetMetrics() }
func (t *tracedEngine) SetExpert(e cache.Expert) { t.e.SetExpert(e) }
func (t *tracedEngine) Expert() cache.Expert     { return t.e.Expert() }
func (t *tracedEngine) Concurrent() bool         { return t.e.Concurrent() }
func (t *tracedEngine) SyncMetrics()             { t.e.SyncMetrics() }

// tracedLog times the DC journal's Put and Remove.
type tracedLog struct {
	l    cache.DCLog
	rec  *recorder
	node int
}

func (t *tracedLog) Put(id uint64, size int64) {
	start := t.rec.now()
	t.l.Put(id, size)
	t.rec.add(lDiskPut, t.node, id, start)
}

func (t *tracedLog) Remove(id uint64) {
	start := t.rec.now()
	t.l.Remove(id)
	t.rec.add(lDiskRemove, t.node, id, start)
}

// tracedTransport times a proxy's outbound round trips from the request to
// the close of the response body. On the origin path it also counts
// connection waits and dials through httptrace.
type tracedTransport struct {
	rt    http.RoundTripper
	rec   *recorder
	layer layer
	node  int
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := t.rec.now()
	id := objectID(req.URL.Path)
	if t.layer == lFetch {
		var getConn atomic.Int64
		ct := &httptrace.ClientTrace{
			GetConn: func(string) { getConn.Store(t.rec.now()) },
			GotConn: func(httptrace.GotConnInfo) {
				t.rec.connWaitNS.Add(t.rec.now() - getConn.Load())
				t.rec.connWaits.Add(1)
			},
			ConnectDone: func(_, _ string, err error) {
				if err == nil {
					t.rec.dials.Add(1)
				}
			},
		}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
	}
	resp, err := t.rt.RoundTrip(req)
	if err != nil {
		t.rec.add(t.layer, t.node, id, start)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: t, id: id, start: start}
	return resp, nil
}

// tracedBody ends its round trip's span when the body is closed.
type tracedBody struct {
	io.ReadCloser
	t     *tracedTransport
	id    uint64
	start int64
	ended atomic.Bool
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.ended.CompareAndSwap(false, true) {
		b.t.rec.add(b.t.layer, b.t.node, b.id, b.start)
	}
	return err
}
