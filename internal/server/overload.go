package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"darwin/internal/breaker"
	"darwin/internal/trace"
)

// DeadlineHeader carries the client's end-to-end deadline in milliseconds.
// The load generator sets it from LoadConfig.Deadline; the proxy (with
// PropagateDeadline on) converts it into a request context deadline that
// bounds every origin fetch attempt, so work the client has already given up
// on is cancelled instead of finished into the void.
const DeadlineHeader = "X-Darwin-Deadline-Ms"

// ShedHeader marks responses the overload layer answered without doing the
// full work: 503 rejects (admission, breaker, deadline) and degraded stale
// serves issued on a shed path. The value names the shed reason.
const ShedHeader = "X-Darwin-Shed"

// Overload configures the proxy's overload-protection stages: circuit
// breaking on the origin path, bounded-in-flight admission control,
// client-deadline propagation with doomed-work shedding, hedged fetches, and
// a rolling-window retry budget. The zero value turns all of them off.
type Overload struct {
	// Breaker parameterises the origin circuit breaker; nil runs none. A
	// zero Config selects the breaker defaults (1s window, 50% threshold,
	// 250ms cool-off, 3 half-open probes).
	Breaker *breaker.Config
	// MaxInFlight bounds concurrently admitted requests; a request over the
	// budget is shed immediately (stale or 503+Retry-After) instead of
	// queueing. 0 means unlimited.
	MaxInFlight int64
	// PropagateDeadline honors the client's DeadlineHeader, deriving the
	// request context deadline every fetch attempt inherits.
	PropagateDeadline bool
	// MinFetchBudget is the remaining-deadline floor below which a miss is
	// shed rather than fetched: a fetch that cannot possibly finish in time
	// is doomed work (default 50ms).
	MinFetchBudget time.Duration
	// Hedge, when > 0, launches a second origin fetch if the first has not
	// answered after this delay; the first result wins and the loser is
	// cancelled. Pick a slow-percentile latency (e.g. ~p95 of healthy
	// fetches) so hedges fire only on straggler attempts.
	Hedge time.Duration
	// RetryBudget caps total retry attempts (attempts beyond a miss's first)
	// per RetryBudgetWindow across the whole proxy, so the backoff path can
	// never probe a sick origin harder than the breaker's half-open budget.
	// 0 selects the breaker's HalfOpenProbes (no cap without a breaker);
	// < 0 disables the cap.
	RetryBudget int64
	// RetryBudgetWindow is the retry budget's reset period (default: the
	// breaker window).
	RetryBudgetWindow time.Duration
	// RetryAfter is the advertised Retry-After on shed 503s (default 1s).
	RetryAfter time.Duration
}

// DefaultOverload returns the hardened defaults used by cmd/darwin-proxy and
// the overload chaos experiment: breaker defaults, 512 in-flight requests,
// deadline propagation with a 50ms fetch floor, a 25ms hedge, and a retry
// budget equal to the breaker's half-open probe budget per window.
func DefaultOverload() Overload {
	return Overload{
		Breaker:           &breaker.Config{},
		MaxInFlight:       512,
		PropagateDeadline: true,
		MinFetchBudget:    50 * time.Millisecond,
		Hedge:             25 * time.Millisecond,
		RetryAfter:        time.Second,
	}
}

// withDefaults fills the knobs whose zero value is not a stage switch, and
// derives the retry budget from the breaker.
func (ov Overload) withDefaults() Overload {
	if ov.MinFetchBudget <= 0 {
		ov.MinFetchBudget = 50 * time.Millisecond
	}
	if ov.RetryAfter <= 0 {
		ov.RetryAfter = time.Second
	}
	if ov.Breaker != nil {
		if ov.RetryBudget == 0 {
			ov.RetryBudget = ov.Breaker.HalfOpenProbes
			if ov.RetryBudget <= 0 {
				ov.RetryBudget = 3 // the breaker default for HalfOpenProbes
			}
		}
		if ov.RetryBudgetWindow <= 0 {
			ov.RetryBudgetWindow = ov.Breaker.Window
		}
	}
	return ov
}

// Ready reports whether the proxy is fit to receive new traffic: false while
// the origin circuit breaker is open (every miss would be shed), so a
// load-balancing layer consuming readiness sheds this server's ring weight
// until the origin recovers.
func (p *Proxy) Ready() bool {
	return p.brk == nil || p.brk.State() != breaker.Open
}

// BreakerSnapshot returns the circuit breaker's coherent counter snapshot,
// and whether the proxy runs a breaker at all.
func (p *Proxy) BreakerSnapshot() (breaker.Snapshot, bool) {
	if p.brk == nil {
		return breaker.Snapshot{}, false
	}
	return p.brk.SnapshotNow(), true
}

// deadlineCtx derives the request context carrying the client's propagated
// deadline, if PropagateDeadline is on and the header is present and
// well-formed; cancel is nil otherwise.
func (p *Proxy) deadlineCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if !p.ov.PropagateDeadline {
		return r.Context(), nil
	}
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return r.Context(), nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return r.Context(), nil
	}
	return context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
}

// doomed reports whether a miss is not worth fetching: the remaining client
// deadline is below the minimum fetch budget, so the fetch would be cancelled
// mid-flight and the client would see a slow failure instead of a fast shed.
func (p *Proxy) doomed(ctx context.Context) bool {
	dl, ok := ctx.Deadline()
	if !ok {
		return false
	}
	return time.Until(dl) < p.ov.MinFetchBudget
}

// deadlinePassed reports whether ctx carries a deadline that the clock has
// reached. It reads the clock rather than ctx.Err(): a fetch context derived
// from the same deadline can fire a moment before ctx's own timer.
func deadlinePassed(ctx context.Context) bool {
	dl, ok := ctx.Deadline()
	return ok && !time.Now().Before(dl)
}

// shed answers a request the overload layer refuses to do full work for:
// from the stale store when possible (a fast, degraded success), otherwise a
// cheap 503 with Retry-After — never by queueing behind a sick origin.
func (p *Proxy) shed(w http.ResponseWriter, req trace.Request, reason string) {
	p.stats.Add(req.ID, psShed, 1)
	w.Header().Set(ShedHeader, reason)
	if p.serveStale(w, req) {
		return
	}
	p.stats.Add(req.ID, psErrors, 1)
	w.Header().Set("Retry-After", strconv.Itoa(int((p.ov.RetryAfter+time.Second-1)/time.Second)))
	http.Error(w, fmt.Sprintf("server: overloaded (%s)", reason), http.StatusServiceUnavailable)
}

// fetchMaybeHedged runs one breaker-accounted fetch attempt, launching a
// hedged second fetch if the first is still quiet after the hedge delay — or
// immediately, if the first fails before the delay (hedge-on-failure: a fast
// origin error costs one backup request, not a budgeted retry). The pair
// shares one breaker permit and one combined outcome, so hedging cannot
// outrun the breaker the way a retry storm can; whichever fetch answers
// first wins and the loser's context is cancelled.
func (p *Proxy) fetchMaybeHedged(ctx context.Context, id uint64, size int64) error {
	if p.ov.Hedge <= 0 {
		return p.fetchDiscard(ctx, id, size)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		hedged bool
		err    error
	}
	results := make(chan outcome, 2)
	launch := func(hedged bool) {
		results <- outcome{hedged: hedged, err: p.fetchDiscard(hctx, id, size)}
	}
	go launch(false)
	timer := time.NewTimer(p.ov.Hedge)
	defer timer.Stop()
	outstanding := 1
	hedgeFired := false
	hedge := func() {
		hedgeFired = true
		outstanding++
		p.stats.Add(id, psHedges, 1)
		p.stats.Add(id, psOriginFetches, 1)
		go launch(true)
	}
	var firstErr error
	for {
		select {
		case res := <-results:
			outstanding--
			if res.err == nil {
				if res.hedged {
					p.stats.Add(id, psHedgeWins, 1)
				}
				return nil // deferred cancel reaps the loser
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if !hedgeFired && ctx.Err() == nil {
				hedge() // hedge-on-failure: don't wait out the timer
				continue
			}
			if outstanding == 0 {
				return firstErr
			}
		case <-timer.C:
			if !hedgeFired {
				hedge()
			}
		}
	}
}
