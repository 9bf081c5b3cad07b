package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/diskcache"
	"darwin/internal/exp"
	"darwin/internal/lb"
	"darwin/internal/server"
)

// scale is the model the benchmark trains at set-up: the Small scale with the
// prototype's 2 000-request epoch, so every pass goes through warm-up →
// identify → exploit many times.
func scale() exp.Scale { return exp.PrototypeScale(exp.Small()) }

// train builds the offline model, as darwin-proxy does at start-up.
func train() (*core.Model, error) {
	c, err := exp.BuildCorpus(scale(), "ohr")
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return c.Model, nil
}

// node is one darwin-proxy: controller over a sharded engine behind the
// overload proxy, with an optional disk-cache journal.
type node struct {
	proxy *server.Proxy
	ctrl  *core.Controller
	eng   *cache.Sharded
	store *diskcache.Store // nil without a journal
	tport *http.Transport  // the node's outbound pool (origin and siblings)
}

// deployment is one pass's system under test, all in this process: an origin,
// one or more nodes and, for a cluster, a darwin-front style front tier.
type deployment struct {
	origin     *server.Origin
	nodes      []*node
	front      *server.Front
	entry      string // base URL the load generator targets
	dir        string // journal directory, removed by close
	stopProber context.CancelFunc
	servers    []*http.Server
	serving    sync.WaitGroup
	serveErrMu sync.Mutex
	serveErr   error // guarded by serveErrMu
}

// deploy builds the workload's deployment. rec is nil for an untraced pass;
// otherwise every public seam is wrapped to record spans into it.
func deploy(w workload, model *core.Model, rec *recorder, workDir string) (d *deployment, err error) {
	d = &deployment{origin: &server.Origin{Latency: w.originLatency}}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	var originH http.Handler = d.origin
	if rec != nil {
		originH = &tracedHandler{h: originH, rec: rec, layer: lOrigin, node: -1}
	}
	originURL, err := d.serve(originH)
	if err != nil {
		return d, err
	}

	// Nodes listen before they are built: each needs every sibling's URL.
	lns := make([]net.Listener, w.nodes)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	urls := make([]string, w.nodes)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return d, err
		}
		urls[i] = "http://" + lns[i].Addr().String()
	}
	if w.cluster() {
		if d.dir, err = os.MkdirTemp(workDir, "journal-"); err != nil {
			return d, err
		}
	}
	for i := range lns {
		n, mux, err := buildNode(w, model, rec, i, urls, d.dir, originURL)
		if err != nil {
			return d, err
		}
		d.nodes = append(d.nodes, n)
		d.start(lns[i], mux)
		lns[i] = nil
	}
	d.entry = urls[0]
	if !w.cluster() {
		return d, nil
	}

	// The front tier with darwin-front's flag defaults.
	d.front, err = server.NewFront(server.FrontConfig{
		Backends:       urls,
		VirtualNodes:   64,
		LoadFactor:     0.25,
		RebalanceEvery: 10_000,
		Attempts:       3,
		ProbeEvery:     250 * time.Millisecond,
		Replication:    lb.ReplicationConfig{TopK: 16, MaxFactor: 3, HotShare: 0.02},
	})
	if err != nil {
		return d, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stopProber = cancel
	d.front.Start(ctx)
	health := server.NewHealth()
	mux := http.NewServeMux()
	var frontH http.Handler = d.front
	if rec != nil {
		frontH = &tracedHandler{h: frontH, rec: rec, layer: lFront, node: -1}
	}
	mux.Handle("/obj/", frontH)
	mux.HandleFunc("/healthz", health.Healthz)
	mux.HandleFunc("/readyz", health.Readyz)
	d.entry, err = d.serve(mux)
	return d, err
}

// buildNode assembles node i as darwin-proxy does with its flag defaults:
// -mode darwin, -shards 0, -publish-every 32, resilience and overload on,
// and (in a cluster) -peers with gossip on.
func buildNode(w workload, model *core.Model, rec *recorder, i int, urls []string, dir, originURL string) (n *node, h http.Handler, err error) {
	n = &node{}
	defer func() {
		if err != nil {
			n.closeStore()
		}
	}()
	var dclog cache.DCLog
	if dir != "" {
		store, err := diskcache.Open(diskcache.Config{
			Dir:          filepath.Join(dir, fmt.Sprintf("node%d", i)),
			SegmentBytes: 16 << 20,
			Sync:         diskcache.SyncBatch,
			BatchEvery:   256,
		})
		if err != nil {
			return n, nil, fmt.Errorf("opening journal: %w", err)
		}
		n.store = store
		dclog = store
		if rec != nil {
			dclog = &tracedLog{l: store, rec: rec, node: i}
		}
	}
	eng, err := cache.NewSharded(cache.Config{HOCBytes: w.hocBytes, DCBytes: w.dcBytes, DCLog: dclog}, cache.AutoShards())
	if err != nil {
		return n, nil, err
	}
	n.eng = eng
	var ce cache.Engine = eng
	if rec != nil {
		ce = &tracedEngine{e: eng, rec: rec, node: i}
	}
	oc := scale().Online
	if model.FeatureWindow > 0 {
		oc.Warmup = model.FeatureWindow
	}
	if n.ctrl, err = core.NewController(model, ce, oc); err != nil {
		return n, nil, err
	}
	eng.SetPublishEvery(32)

	var dec server.Decider = n.ctrl
	if rec != nil {
		dec = &tracedDecider{d: n.ctrl, rec: rec, node: i}
	}
	n.proxy = server.NewOverloadProxy(dec, originURL, w.dcLatency, server.DefaultResilience(), server.DefaultOverload())
	// One pool per node, shared by its origin and sibling clients: the
	// process-wide default transport each darwin-proxy process has.
	n.tport = http.DefaultTransport.(*http.Transport).Clone()
	var fetchRT, peerRT http.RoundTripper = n.tport, n.tport
	if rec != nil {
		fetchRT = &tracedTransport{rt: n.tport, rec: rec, layer: lFetch, node: i}
		peerRT = &tracedTransport{rt: n.tport, rec: rec, layer: lPeer, node: i}
	}
	n.proxy.Client = &http.Client{Timeout: 30 * time.Second, Transport: fetchRT}
	if w.cluster() {
		const peerTimeout = 150 * time.Millisecond
		if err := n.proxy.SetPeers(server.PeerConfig{
			Self:         urls[i],
			Nodes:        urls,
			Fanout:       2,
			FetchTimeout: peerTimeout,
			Client:       &http.Client{Timeout: peerTimeout, Transport: peerRT},
		}); err != nil {
			return n, nil, err
		}
	}

	health := server.NewHealth(server.Gate{Name: "breaker", Ready: n.proxy.Ready})
	mux := http.NewServeMux()
	var objH http.Handler = n.proxy
	if rec != nil {
		objH = &tracedHandler{h: objH, rec: rec, layer: lProxy, node: i}
	}
	mux.Handle("/obj/", objH)
	mux.HandleFunc("/healthz", health.Healthz)
	mux.HandleFunc("/readyz", health.Readyz)
	if w.cluster() {
		proxy := n.proxy
		mux.HandleFunc("/gossip", func(w http.ResponseWriter, r *http.Request) {
			if health.Draining() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			proxy.ServeGossip(w, r)
		})
	}
	return n, mux, nil
}

func (n *node) closeStore() error {
	if n.store == nil {
		return nil
	}
	return n.store.Close()
}

// serve starts an HTTP server with the binaries' timeouts on a fresh
// loopback port and returns its base URL.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.start(ln, h)
	return "http://" + ln.Addr().String(), nil
}

func (d *deployment) start(ln net.Listener, h http.Handler) {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	d.servers = append(d.servers, srv)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.serveErrMu.Lock()
			d.serveErr = err
			d.serveErrMu.Unlock()
		}
	}()
}

// settle waits, up to a second, for handlers still finishing their
// bookkeeping after the client has the response: the front counts a relay
// only once the body is written.
func (d *deployment) settle() {
	for i := 0; d.front != nil && i < 1000; i++ {
		if st := d.front.Stats(); st.Requests == st.Relayed+st.NoBackend {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the prober and every server, waits for them, closes the
// journals and removes their directory.
func (d *deployment) close() error {
	if d.stopProber != nil {
		d.stopProber()
	}
	for i := len(d.servers) - 1; i >= 0; i-- {
		d.servers[i].Close()
	}
	d.serving.Wait()
	d.serveErrMu.Lock()
	errs := []error{d.serveErr}
	d.serveErrMu.Unlock()
	for _, n := range d.nodes {
		n.tport.CloseIdleConnections()
		errs = append(errs, n.closeStore())
	}
	if d.dir != "" {
		errs = append(errs, os.RemoveAll(d.dir))
	}
	return errors.Join(errs...)
}
