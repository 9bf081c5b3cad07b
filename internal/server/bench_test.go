package server

import (
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"darwin/internal/baselines"
	"darwin/internal/cache"
)

// mutexCounter is the pre-hardening Origin accounting (mutex-guarded ints),
// kept here so the benchmark pair below documents the contention win of the
// atomic counters now used by Origin.
type mutexCounter struct {
	mu              sync.Mutex
	requests, bytes int64
}

func (m *mutexCounter) account(size int64) {
	m.mu.Lock()
	m.requests++
	m.bytes += size
	m.mu.Unlock()
}

func BenchmarkOriginAccountMutex(b *testing.B) {
	var c mutexCounter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.account(1000)
		}
	})
}

func BenchmarkOriginAccountAtomic(b *testing.B) {
	var o Origin
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			o.account(1000)
		}
	})
}

// BenchmarkProxyHOCHit measures the proxy's in-memory fast path under
// parallel load: the decider call is the only serialized section; header and
// body writes run outside the lock.
func BenchmarkProxyHOCHit(b *testing.B) {
	dec, err := baselines.NewStatic(cache.Expert{Freq: 1, MaxSize: 1 << 20},
		cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20})
	if err != nil {
		b.Fatal(err)
	}
	proxy := NewOverloadProxy(dec, "http://unused", 0, DefaultResilience(), Overload{})
	origin := httptest.NewServer(&Origin{})
	defer origin.Close()
	proxy.OriginURL = origin.URL
	// Promote object 1 into the HOC: miss, miss → DC, dc-hit → HOC.
	for i := 0; i < 3; i++ {
		w := httptest.NewRecorder()
		proxy.ServeHTTP(w, httptest.NewRequest("GET", "/obj/1?size=4096", nil))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			w := httptest.NewRecorder()
			proxy.ServeHTTP(w, httptest.NewRequest("GET", "/obj/1?size=4096", nil))
			if w.Code != 200 || w.Header().Get("X-Cache") != "hoc-hit" {
				b.Fatalf("status %d, X-Cache %q", w.Code, w.Header().Get("X-Cache"))
			}
		}
	})
}

// BenchmarkFrontRelay measures one client → Front → Origin round trip per
// op over loopback; B/op is the whole process's allocation per relayed
// response, so a per-response copy buffer shows up as a size-dependent jump.
func BenchmarkFrontRelay(b *testing.B) {
	for _, size := range []int64{1 << 10, 16 << 10, 100 << 10} {
		b.Run(strconv.FormatInt(size>>10, 10)+"KiB", func(b *testing.B) {
			_, url, client := relayFront(b, &Origin{})
			u := url + "/obj/1?size=" + strconv.FormatInt(size, 10)
			b.ReportAllocs()
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := relayGet(client, u, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
