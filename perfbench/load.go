package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/trace"
)

// loadResult is what the client saw over one measured window.
type loadResult struct {
	attempted, completed, failed int
	bytes, wantBytes             int64           // received, and summed requested sizes of completed requests
	hoc, dc, miss, other         int             // X-Cache of completed requests
	fbP50ms, fbP99ms             float64         // first-byte latency percentiles of completed requests
	sliceP99                     []time.Duration // first-byte p99 of each latencySlice of the window
	wall                         time.Duration
	firstErr                     error
}

// latencySlice is the stretch of completion time each first-byte p99 in
// loadResult.sliceP99 covers: long enough to hold the program's periodic
// work (garbage collections, learning epochs, journal syncs, front
// rebalances and probes) many times over, short enough that a run has
// tens of them.
const latencySlice = time.Second

// client is a closed-loop load generator: conns workers, each sending its
// next request only after the previous response body has been read.
type client struct {
	tport *http.Transport
	base  *url.URL
	conns int
	rec   *recorder // nil when untraced
}

func newClient(entry string, conns int, rec *recorder) (*client, error) {
	base, err := url.Parse(entry)
	if err != nil {
		return nil, err
	}
	return &client{
		tport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
		base:  base,
		conns: conns,
		rec:   rec,
	}, nil
}

func (c *client) close() { c.tport.CloseIdleConnections() }

// run replays reqs (URLs rendered before the clock starts) and returns what
// came back.
func (c *client) run(reqs []trace.Request) loadResult {
	paths := make([]string, len(reqs))
	queries := make([]string, len(reqs))
	for i, r := range reqs {
		paths[i] = "/obj/" + strconv.FormatUint(r.ID, 10)
		queries[i] = "size=" + strconv.FormatInt(r.Size, 10)
	}
	fb := make([]time.Duration, len(reqs))
	done := make([]time.Duration, len(reqs)) // completion, from begin
	recv := make([]int64, len(reqs))
	status := make([]int8, len(reqs)) // 0 failed, else the X-Cache class
	var (
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		begin    time.Time
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	worker := func() {
		defer wg.Done()
		hc := &http.Client{Transport: c.tport, Timeout: 60 * time.Second}
		buf := make([]byte, 64<<10)
		u := *c.base
		hreq := &http.Request{
			Method: http.MethodGet, URL: &u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: make(http.Header), Host: c.base.Host,
		}
		for {
			i := int(next.Add(1) - 1)
			if i >= len(reqs) {
				return
			}
			u.Path, u.RawQuery = paths[i], queries[i]
			var spanStart int64
			if c.rec != nil {
				spanStart = c.rec.now()
			}
			start := time.Now()
			resp, err := hc.Do(hreq)
			if err != nil {
				fail(err)
				continue
			}
			n, rerr := resp.Body.Read(buf)
			first := time.Since(start)
			got := int64(n)
			for rerr == nil {
				n, rerr = resp.Body.Read(buf)
				got += int64(n)
			}
			resp.Body.Close()
			if c.rec != nil {
				c.rec.add(lClient, -1, reqs[i].ID, spanStart)
			}
			switch {
			case resp.StatusCode != http.StatusOK:
				fail(fmt.Errorf("request %d: status %d", i, resp.StatusCode))
			case rerr != io.EOF:
				fail(fmt.Errorf("request %d: body: %w", i, rerr))
			default:
				fb[i] = first
				done[i] = time.Since(begin)
				recv[i] = got
				status[i] = xcacheClass(resp.Header.Get("X-Cache"))
			}
		}
	}
	begin = time.Now()
	wg.Add(c.conns)
	for i := 0; i < c.conns; i++ {
		go worker()
	}
	wg.Wait()
	res := loadResult{attempted: len(reqs), wall: time.Since(begin), firstErr: firstErr}
	firstByte, doneAt := fb[:0], done[:0]
	for i, s := range status {
		if s <= 0 {
			res.failed++
			continue
		}
		res.completed++
		res.wantBytes += reqs[i].Size
		res.bytes += recv[i]
		firstByte, doneAt = append(firstByte, fb[i]), append(doneAt, done[i])
		switch s {
		case 1:
			res.hoc++
		case 2:
			res.dc++
		case 3:
			res.miss++
		default:
			res.other++
		}
	}
	res.fbP50ms, res.fbP99ms = percentileMS(firstByte, 50), percentileMS(firstByte, 99)
	res.sliceP99 = sliceP99(firstByte, doneAt, res.wall)
	return res
}

// sliceP99 cuts a window of wall time into latencySlices by completion time
// (a trailing part shorter than a slice joins the slice before it) and
// returns the p99 first-byte latency of each slice that completed a request.
func sliceP99(firstByte, doneAt []time.Duration, wall time.Duration) []time.Duration {
	bySlice := make([][]time.Duration, max(int(wall/latencySlice), 1))
	for i, fb := range firstByte {
		k := min(int(doneAt[i]/latencySlice), len(bySlice)-1)
		bySlice[k] = append(bySlice[k], fb)
	}
	var p99 []time.Duration
	for _, sl := range bySlice {
		if len(sl) > 0 {
			p99 = append(p99, percentile(sl, 99))
		}
	}
	return p99
}

func xcacheClass(v string) int8 {
	switch v {
	case "hoc-hit":
		return 1
	case "dc-hit":
		return 2
	case "miss":
		return 3
	}
	return 4
}
