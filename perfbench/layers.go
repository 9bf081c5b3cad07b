package main

import (
	"sort"
)

// spanStats turns one traced pass's spans into the per-layer timings (mean
// microseconds per span) and self times. A layer's self time is its span's
// duration minus the part of that interval its child spans cover; children
// are matched by object id (and node, below the front), so two concurrent
// requests for the same object can blur the split between them.
func spanStats(spans []span, nodes int) map[string]float64 {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.id != b.id {
			return a.id < b.id
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.layer < b.layer // parents before children on a tie
	})
	var (
		count   [nLayers]int64
		total   [nLayers]int64
		perNode = make([]int64, nodes)
	)
	for _, s := range spans {
		count[s.layer]++
		total[s.layer] += s.end - s.start
		if s.layer == lProxy && int(s.node) < nodes && s.node >= 0 {
			perNode[s.node]++
		}
	}
	mean := func(l layer) float64 {
		if count[l] == 0 {
			return 0
		}
		return float64(total[l]) / float64(count[l]) / 1e3
	}
	top := lProxy
	if count[lFront] > 0 {
		top = lFront
	}
	proxyChildren := []layer{lCoreServe, lCoreLookup, lFetch, lPeer}
	return map[string]float64{
		"server.proxy.handler_us":   mean(lProxy),
		"server.proxy.self_us":      selfTime(spans, lProxy, proxyChildren, true),
		"core.serve_us":             mean(lCoreServe),
		"core.self_us":              selfTime(spans, lCoreServe, []layer{lCacheServe}, true),
		"core.lookup_us":            mean(lCoreLookup),
		"cache.serve_us":            mean(lCacheServe),
		"cache.lookup_us":           mean(lCacheLookup),
		"server.fetch.roundtrip_us": mean(lFetch),
		"server.origin.handler_us":  mean(lOrigin),
		"diskcache.put_us":          mean(lDiskPut),
		"diskcache.remove_us":       mean(lDiskRemove),
		"server.front.handler_us":   mean(lFront),
		"server.front.self_us":      selfTime(spans, lFront, []layer{lProxy}, false),
		"server.peer.probe_us":      mean(lPeer),
		"loadgen.overhead_us":       selfTime(spans, lClient, []layer{top}, false),
		"lb.load_imbalance":         imbalance(perNode),
	}
}

// selfTime returns the mean self time (µs) of parent spans: each one's
// duration minus the union of the child spans of the same object (and node,
// when sameNode) that lie inside it. spans must be sorted by spanStats.
func selfTime(spans []span, parent layer, children []layer, sameNode bool) float64 {
	var isChild [nLayers]bool
	for _, c := range children {
		isChild[c] = true
	}
	var n, sum int64
	for i, p := range spans {
		if p.layer != parent {
			continue
		}
		covered, reach := int64(0), p.start
		for j := i + 1; j < len(spans); j++ {
			c := spans[j]
			if c.id != p.id || c.start > p.end {
				break
			}
			if !isChild[c.layer] || c.end > p.end || (sameNode && c.node != p.node) {
				continue
			}
			lo := max(c.start, reach)
			if c.end > lo {
				covered += c.end - lo
				reach = c.end
			}
		}
		n++
		sum += p.end - p.start - covered
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// imbalance is the busiest node's request count over the mean (1 = even).
func imbalance(perNode []int64) float64 {
	var sum, most int64
	for _, c := range perNode {
		sum += c
		most = max(most, c)
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(len(perNode)) / float64(sum)
}
