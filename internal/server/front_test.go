package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"darwin/internal/baselines"
	"darwin/internal/breaker"
	"darwin/internal/cache"
	"darwin/internal/lb"
)

// frontBackend is one cluster node as the front tier sees it: the caching
// proxy at /obj/ plus its health surface at /readyz.
func frontBackend(t *testing.T, originURL string) (*Proxy, *Health, *httptest.Server) {
	t.Helper()
	dec, err := baselines.NewStaticSharded(cache.Expert{Freq: 1, MaxSize: 1 << 20},
		cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewOverloadProxy(dec, originURL, 0, fastResilience(), Overload{})
	health := NewHealth()
	mux := http.NewServeMux()
	mux.Handle("/obj/", proxy)
	mux.HandleFunc("/readyz", health.Readyz)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return proxy, health, srv
}

// TestFrontDrainShedsWeightWithinOneWindow is the satellite requirement: a
// backend whose /readyz starts failing (SIGTERM drain) loses its entire ring
// weight at the next window boundary, and every subsequent request routes to
// the survivors.
func TestFrontDrainShedsWeightWithinOneWindow(t *testing.T) {
	origin := &Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	_, h0, b0 := frontBackend(t, originSrv.URL)
	_, _, b1 := frontBackend(t, originSrv.URL)

	f, err := NewFront(FrontConfig{
		Backends:       []string{b0.URL, b1.URL},
		RebalanceEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f.ProbeOnce(ctx)
	w := f.Weights()
	if w[0] != 1 || w[1] != 1 {
		t.Fatalf("healthy cluster weights %v, want [1 1]", w)
	}

	// Backend 0 starts draining: readyz flips to 503 immediately.
	h0.StartDrain()
	f.ProbeOnce(ctx)

	// Route one full window: the boundary must strip backend 0's weight.
	saw0 := false
	for i := 0; i < 100; i++ {
		if s, _ := f.pick(uint64(i)); s == 0 {
			saw0 = true // window 0 weights predate the drain; both legal
		}
	}
	for i := 100; i < 200; i++ {
		if s, _ := f.pick(uint64(1_000_000 + i)); s == 0 {
			t.Fatalf("request %d routed to the draining backend after the boundary", i)
		}
	}
	if got := f.Weights(); got[0] != 0 || got[1] != 1 {
		t.Fatalf("post-drain weights %v, want [0 1]", got)
	}
	if f.Window() == 0 {
		t.Fatal("window never advanced")
	}
	_ = saw0
}

// TestFrontFailoverOnDeadBackend: a backend that dies without draining
// (transport errors, not 503s) is failed over within the same request, its
// breaker opens, and clients keep getting 200s.
func TestFrontFailoverOnDeadBackend(t *testing.T) {
	origin := &Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	_, _, b0 := frontBackend(t, originSrv.URL)
	_, _, b1 := frontBackend(t, originSrv.URL)

	f, err := NewFront(FrontConfig{
		Backends:       []string{b0.URL, b1.URL},
		RebalanceEvery: 1 << 30, // no boundary: failover alone must cope
	})
	if err != nil {
		t.Fatal(err)
	}
	frontSrv := httptest.NewServer(f)
	defer frontSrv.Close()

	if resp := mustGet(t, frontSrv.URL+"/obj/1?size=500", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy cluster: status %d", resp.StatusCode)
	}

	b0.Close() // node 0 dies hard
	for i := 0; i < 40; i++ {
		resp := mustGet(t, frontSrv.URL+"/obj/"+string(rune('0'+i%10))+"?size=500", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after backend death: status %d", i, resp.StatusCode)
		}
	}
	st := f.Stats()
	if st.Failovers == 0 {
		t.Fatal("no failovers recorded despite a dead backend")
	}
	if st.BreakerRejects == 0 {
		t.Fatal("dead backend's breaker never opened")
	}
	if st.NoBackend != 0 {
		t.Fatalf("%d requests found no backend with a live survivor", st.NoBackend)
	}
}

// TestFrontReplicatesHotObject: after one observed window, a dominant object
// routes with a widened replica set and the stats surface says so.
func TestFrontReplicatesHotObject(t *testing.T) {
	origin := &Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	_, _, b0 := frontBackend(t, originSrv.URL)
	_, _, b1 := frontBackend(t, originSrv.URL)
	_, _, b2 := frontBackend(t, originSrv.URL)

	f, err := NewFront(FrontConfig{
		Backends:       []string{b0.URL, b1.URL, b2.URL},
		RebalanceEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	const hot = uint64(77)
	servers := map[int]bool{}
	for i := 0; i < 2500; i++ {
		id := uint64(10_000 + i)
		if i%2 == 0 {
			id = hot
		}
		s, replicas := f.pick(id)
		if id == hot && replicas > 1 {
			servers[s] = true
		}
	}
	var rs [lb.RsWidth]int64
	f.ReplicationStats(rs[:])
	if rs[lb.RsHotObjects] == 0 || rs[lb.RsMaxFactor] < 2 {
		t.Fatalf("hot object never widened: stats %v", rs)
	}
	if len(servers) < 2 {
		t.Fatalf("replicated hot object stayed on %d server(s)", len(servers))
	}
}

// relayFront serves a Front over one backend and returns it with the front's
// URL and a client of its own.
func relayFront(tb testing.TB, backend http.Handler) (*Front, string, *http.Client) {
	tb.Helper()
	bsrv := httptest.NewServer(backend)
	tb.Cleanup(bsrv.Close)
	f, err := NewFront(FrontConfig{Backends: []string{bsrv.URL}, DisableGossip: true})
	if err != nil {
		tb.Fatal(err)
	}
	fsrv := httptest.NewServer(f)
	tb.Cleanup(fsrv.Close)
	tport := &http.Transport{}
	tb.Cleanup(tport.CloseIdleConnections)
	return f, fsrv.URL, &http.Client{Transport: tport}
}

// relayGet fetches url and reads the whole body; a non-200 status, a body
// error or a body of other than size bytes is an error.
func relayGet(c *http.Client, url string, size int64) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return fmt.Errorf("body after %d bytes: %w", n, err)
	}
	if resp.StatusCode != http.StatusOK || n != size {
		return fmt.Errorf("status %d, %d/%d bytes", resp.StatusCode, n, size)
	}
	return nil
}

// truncatingBackend starts a 10000-byte answer — declared by Content-Length,
// or chunked — sends 100 bytes of it and aborts the connection.
func truncatingBackend(chunked bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !chunked {
			w.Header().Set("Content-Length", "10000")
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(pattern[:100])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
}

// TestFrontRelayBudget pins the relay's copy: a body is copied through the
// pooled buffer, so relaying 100 KiB allocates no more than relaying 200 B
// (a per-response copy buffer would cost 32 KiB more), and a backend body
// cut off mid-stream never reaches the client as a complete response.
func TestFrontRelayBudget(t *testing.T) {
	t.Run("alloc", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation budgets do not hold under -race")
		}
		_, url, client := relayFront(t, &Origin{})
		perRequest := func(size int64) float64 {
			u := url + "/obj/1?size=" + strconv.FormatInt(size, 10)
			const warm, n = 20, 500
			var before, after runtime.MemStats
			for i := 0; i < warm+n; i++ {
				if i == warm {
					runtime.ReadMemStats(&before)
				}
				if err := relayGet(client, u, size); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / n
		}
		small, large := perRequest(200), perRequest(100<<10)
		t.Logf("relay allocation: 200 B body %.0f B/req, 100 KiB body %.0f B/req", small, large)
		if d := large - small; d >= 4<<10 {
			t.Errorf("relaying 100 KiB allocates %.0f B/req, 200 B %.0f B/req: %.0f B more, want < 4096",
				large, small, d)
		}
	})
	for _, chunked := range []bool{false, true} {
		t.Run(fmt.Sprintf("truncated/chunked=%v", chunked), func(t *testing.T) {
			_, url, client := relayFront(t, truncatingBackend(chunked))
			for i := 0; i < 3; i++ {
				resp, err := client.Get(url + "/obj/1?size=10000")
				if err != nil {
					continue // cut before the status line: not complete either
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil {
					t.Fatalf("request %d: truncated backend body reached the client complete (%d bytes)", i, n)
				}
			}
		})
	}
}

// TestFrontBreakerChargesTruncatedBody: a backend that answers a clean status
// line and then cuts every body short opens its breaker like one that
// refuses connections, while clients hanging up mid-body never charge it.
func TestFrontBreakerChargesTruncatedBody(t *testing.T) {
	t.Run("backend-cut", func(t *testing.T) {
		f, url, client := relayFront(t, truncatingBackend(false))
		for i := 0; i < 20; i++ {
			if err := relayGet(client, url+"/obj/1?size=10000", 10000); err == nil {
				t.Fatalf("request %d: complete response from a truncating backend", i)
			}
		}
		if st := f.brks[0].State(); st != breaker.Open {
			t.Fatalf("breaker %v after 20 truncated bodies, want open", st)
		}
		if st := f.Stats(); st.BreakerRejects == 0 || st.Relayed == 20 {
			t.Fatalf("stats %+v: the open breaker never stopped a relay", st)
		}
	})
	t.Run("client-hangup", func(t *testing.T) {
		f, url, client := relayFront(t, &Origin{})
		for i := 0; i < 20; i++ {
			resp, err := client.Get(url + "/obj/1?size=" + strconv.Itoa(8<<20))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.CopyN(io.Discard, resp.Body, 1000); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close() // hang up mid-body
		}
		if st := f.brks[0].State(); st != breaker.Closed {
			t.Fatalf("breaker %v after client hang-ups, want closed", st)
		}
	})
}
