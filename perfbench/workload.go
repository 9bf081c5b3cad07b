package main

import (
	"fmt"
	"time"

	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// workload is one traffic mix against one deployment shape. A pass replays
// the workload's whole trace against a freshly deployed system; a run repeats
// passes until its measuring time is used up.
type workload struct {
	name              string
	nodes             int // darwin-proxy nodes; more than one makes a cluster
	hocBytes, dcBytes int64
	originLatency     time.Duration
	dcLatency         time.Duration
	passLen           int // requests per pass, warm-up included
	gen               func(seed int64, n int) (*trace.Trace, error)
}

// warmupFrac is the share of each pass's trace that warms caches and
// connections untimed (the paper's WarmupFrac).
const warmupFrac = 0.1

var workloads = []workload{
	// Per-request CPU in net/http, the proxy handler and the body write sets
	// the result; the origin and learning do little work.
	{
		name:     "hot",
		nodes:    1,
		hocBytes: 256 << 10,
		dcBytes:  32 << 20,
		passLen:  30_000,
		gen: func(seed int64, n int) (*trace.Trace, error) {
			return tracegen.ImageDownloadMix(50, n, seed)
		},
	},
	// Latency depends on where each request is served, so Darwin's admission
	// choices (OHR) move first-byte latency; CPU barely matters.
	{
		name:          "shift",
		nodes:         1,
		hocBytes:      256 << 10,
		dcBytes:       32 << 20,
		originLatency: 2 * time.Millisecond,
		dcLatency:     500 * time.Microsecond,
		passLen:       8_000,
		gen:           shiftTrace,
	},
	// Writes beside reads: HOC/DC admissions and evictions, journal puts and
	// removes, peer probes, ring routing. Scan keeps adding distinct ids, so
	// memory shows per-id state.
	{
		name:     "edge",
		nodes:    3,
		hocBytes: 256 << 10,
		dcBytes:  8 << 20,
		passLen:  60_000,
		gen: func(seed int64, n int) (*trace.Trace, error) {
			return tracegen.Generate(tracegen.MixConfig{
				Classes:  []tracegen.Class{tracegen.Image(), tracegen.Download(), tracegen.Scan()},
				Weights:  []float64{70, 30, 30},
				Requests: n,
				Seed:     seed,
			})
		},
	},
}

// shiftTrace concatenates four Image:Download segments whose best experts
// differ, as exp.PrototypeTrace does, with segment seeds derived from seed.
func shiftTrace(seed int64, n int) (*trace.Trace, error) {
	var segs []*trace.Trace
	for i, pct := range []int{100, 0, 75, 25} {
		tr, err := tracegen.ImageDownloadMix(pct, n/4, seed*1000+int64(900+i))
		if err != nil {
			return nil, err
		}
		segs = append(segs, tr)
	}
	return trace.Concat(fmt.Sprintf("shift-seed%d", seed), segs...), nil
}

// cluster reports whether w deploys a darwin-front style front tier over
// peer-filled nodes, each with a diskcache journal at fsync=batch.
func (w workload) cluster() bool { return w.nodes > 1 }

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
