package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"afterimage/internal/obslog"
	"afterimage/internal/runner"
)

// Attempt is one dispatch attempt's record — the failover audit trail that
// rides into the campaign's span tree, showing which worker ran each attempt
// and why the coordinator moved on.
type Attempt struct {
	// Worker is the worker id, or "local" for the degradation path.
	Worker string `json:"worker"`
	// Outcome is ok | hedge-win | error | canceled | local.
	Outcome string `json:"outcome"`
	// Hedge marks a straggler re-dispatch rather than a primary request.
	Hedge bool `json:"hedge,omitempty"`
	// Err carries the failure detail for error outcomes.
	Err string `json:"err,omitempty"`
}

// Result is one completed dispatch.
type Result struct {
	// Body is the job's result bytes — byte-identical regardless of which
	// worker (or the local path) produced them.
	Body []byte
	// Mode is "worker" or "local".
	Mode string
	// Worker is the id of the worker that produced Body ("local" when
	// degraded).
	Worker string
	// Attempts is the full per-attempt audit trail, in dispatch order.
	Attempts []Attempt
}

// dispatchError is a classified worker failure.
type dispatchError struct {
	msg       string
	permanent bool // the worker answered and rejected the job (4xx)
}

func (e *dispatchError) Error() string { return e.msg }

// isPermanent reports whether err is a worker-side rejection no other worker
// would answer differently.
func isPermanent(err error) bool {
	var de *dispatchError
	return errors.As(err, &de) && de.permanent
}

// Dispatch runs one job (key, payload) through the pool: rendezvous-ranked
// failover with deterministic jittered backoff between rounds, a hedged
// second request once the primary outlives the latency-percentile delay,
// and local degradation when no worker is dispatchable or every round
// failed. The returned Result's Body is byte-identical whichever path
// produced it; Attempts records every worker touched and why.
func (c *Coordinator) Dispatch(ctx context.Context, key string, payload []byte) (*Result, error) {
	c.dispatches.Inc()
	var attempts []Attempt
	permanentStop := false

	for round := 0; round < c.cfg.DispatchRounds && !permanentStop; round++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		cands := c.candidates(key)
		if len(cands) == 0 {
			break // nobody to try: degrade immediately
		}
		now := c.now()
		primary, idx := c.admitPrimary(cands, round, now)
		if primary == nil {
			break // breakers ate every candidate
		}
		var hedge *worker
		for off := 1; off < len(cands); off++ {
			if w := cands[(idx+off)%len(cands)]; w != primary {
				hedge = w
				break
			}
		}

		body, winner, recs, err := c.raceAttempt(ctx, key, payload, primary, hedge)
		attempts = append(attempts, recs...)
		if err == nil {
			c.dispatchOK.Inc()
			return &Result{Body: body, Mode: "worker", Worker: winner.id, Attempts: attempts}, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if isPermanent(err) {
			// A worker answered and rejected the job; no sibling will
			// disagree, so stop failing over — the local run is the
			// authoritative tiebreak (version skew on a worker must not
			// fail a campaign the coordinator can run itself).
			permanentStop = true
			obslog.Ctx(c.log, ctx).Warn("cluster: worker rejected job; degrading to local",
				"key", key, "err", err)
			break
		}
		c.failovers.Inc()
		obslog.Ctx(c.log, ctx).Warn("cluster: dispatch round failed; failing over",
			"key", key, "round", round, "worker", primary.id, "err", err)
		if round+1 < c.cfg.DispatchRounds {
			c.retryWaits.Inc()
			d := runner.Delay(c.cfg.BackoffBase, c.cfg.BackoffMax, c.cfg.Seed, key, round)
			if !sleepDispatch(ctx, d) {
				return nil, ctx.Err()
			}
		}
	}

	// Degrade to local in-process execution: zero dispatchable workers (or
	// exhausted failover) must never refuse a campaign the coordinator
	// could run alone.
	if c.cfg.Local == nil {
		c.dispatchErrors.Inc()
		return nil, fmt.Errorf("cluster: no dispatchable worker for %s and no local fallback", key)
	}
	c.degradedLocal.Inc()
	obslog.Ctx(c.log, ctx).Info("cluster: degrading to local execution",
		"key", key, "attempts", len(attempts))
	body, err := c.cfg.Local(ctx, key, payload)
	if err != nil {
		c.dispatchErrors.Inc()
		return nil, err
	}
	attempts = append(attempts, Attempt{Worker: "local", Outcome: "local"})
	return &Result{Body: body, Mode: "local", Worker: "local", Attempts: attempts}, nil
}

// candidates ranks the dispatchable pool for key: healthy workers first in
// rendezvous order, then suspects (still registered but missing heartbeats)
// as the fallback tier. Workers with open breakers or an eviction are out.
func (c *Coordinator) candidates(key string) []*worker {
	now := c.now()
	var healthy, suspect []*worker
	for _, w := range c.pool.all() {
		w.mu.Lock()
		st := w.state
		w.mu.Unlock()
		if st == WorkerEvicted || w.breaker.State(now) == BreakerOpen {
			continue
		}
		if st == WorkerHealthy {
			healthy = append(healthy, w)
		} else {
			suspect = append(suspect, w)
		}
	}
	return append(rankWorkers(healthy, key), rankWorkers(suspect, key)...)
}

// admitPrimary picks the round's primary worker: scanning from the round
// offset (so consecutive rounds walk the ranking), the first candidate whose
// breaker admits a request. Half-open breakers admit exactly one probe; the
// launch goroutine reports its outcome.
func (c *Coordinator) admitPrimary(cands []*worker, round int, now time.Time) (*worker, int) {
	for off := 0; off < len(cands); off++ {
		i := (round + off) % len(cands)
		if cands[i].breaker.Allow(now) {
			return cands[i], i
		}
	}
	return nil, -1
}

// raceResult is one launched request's outcome.
type raceResult struct {
	w     *worker
	body  []byte
	err   error
	hedge bool
}

// raceAttempt runs the primary request and, once it outlives the hedge
// delay, a duplicate against the hedge worker. The first success wins and
// cancels the loser's request context; both outcomes feed the breakers
// (losers canceled by the race are not charged).
func (c *Coordinator) raceAttempt(ctx context.Context, key string, payload []byte, primary, hedge *worker) ([]byte, *worker, []Attempt, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	resc := make(chan raceResult, 2)

	launch := func(w *worker, isHedge bool) {
		began := time.Now()
		body, err := c.execute(actx, w, key, payload)
		dur := time.Since(began)
		if err == nil {
			now := c.now()
			w.breaker.Success(now)
			w.setSeen(now)
			us := uint64(dur.Microseconds())
			w.dispatchUS.Observe(us)
			c.dispatchUS.Observe(us)
			w.lat.observe(dur)
			c.lat.observe(dur)
		} else if actx.Err() == nil {
			now := c.now()
			if isPermanent(err) {
				// The worker answered; rejecting the payload is not a
				// health signal.
				w.breaker.Success(now)
			} else {
				w.breaker.Failure(now)
			}
		}
		resc <- raceResult{w: w, body: body, err: err, hedge: isHedge}
	}
	go launch(primary, false)

	var timerC <-chan time.Time
	if hedge != nil {
		if delay, ok := c.hedgeDelay(); ok {
			t := time.NewTimer(delay)
			defer t.Stop()
			timerC = t.C
		}
	}

	var attempts []Attempt
	var firstErr error
	hedged := false
	outstanding := 1
	for outstanding > 0 {
		select {
		case <-ctx.Done():
			// The campaign died; the launched goroutines unwind into the
			// buffered channel.
			return nil, nil, attempts, ctx.Err()
		case <-timerC:
			timerC = nil
			if !hedge.breaker.Allow(c.now()) {
				continue
			}
			hedged = true
			outstanding++
			c.hedged.Inc()
			obslog.Ctx(c.log, ctx).Info("cluster: hedging straggler dispatch",
				"key", key, "primary", primary.id, "hedge", hedge.id)
			go launch(hedge, true)
		case r := <-resc:
			outstanding--
			if r.err == nil {
				outcome := "ok"
				if r.hedge {
					outcome = "hedge-win"
					c.hedgeWins.Inc()
				} else if hedged {
					c.hedgeLosses.Inc()
				}
				attempts = append(attempts, Attempt{Worker: r.w.id, Outcome: outcome, Hedge: r.hedge})
				if outstanding > 0 {
					// The slower twin's request context dies with cancel();
					// record that it was raced, not that it failed.
					loser := primary
					if !r.hedge {
						loser = hedge
					}
					attempts = append(attempts, Attempt{Worker: loser.id, Outcome: "canceled", Hedge: !r.hedge})
				}
				return r.body, r.w, attempts, nil
			}
			attempts = append(attempts, Attempt{Worker: r.w.id, Outcome: "error", Hedge: r.hedge, Err: r.err.Error()})
			if firstErr == nil || (isPermanent(r.err) && !isPermanent(firstErr)) {
				firstErr = r.err
			}
		}
	}
	return nil, nil, attempts, firstErr
}

// hedgeDelay picks when to launch the duplicate request: the configured
// fixed delay, or the hedge percentile of the pooled dispatch latencies once
// enough samples exist (floored so a burst of fast cache-warm dispatches
// cannot make hedging hair-triggered).
func (c *Coordinator) hedgeDelay() (time.Duration, bool) {
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter, true
	}
	if c.lat.count() < c.cfg.HedgeMinSamples {
		return 0, false
	}
	p, ok := c.lat.percentile(c.cfg.HedgePercentile)
	if !ok {
		return 0, false
	}
	if p < c.cfg.HedgeMin {
		p = c.cfg.HedgeMin
	}
	return p, true
}

// execute performs one HTTP job request against one worker.
func (c *Coordinator) execute(ctx context.Context, w *worker, key string, payload []byte) ([]byte, error) {
	if c.cfg.DispatchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.DispatchTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.addr+ExecutePath, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderJobKey, key)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: read worker response: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return body, nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests:
		return nil, &dispatchError{
			msg:       fmt.Sprintf("worker %s rejected job: %s: %s", w.id, resp.Status, truncate(body, 256)),
			permanent: true,
		}
	default:
		return nil, &dispatchError{
			msg: fmt.Sprintf("worker %s failed: %s: %s", w.id, resp.Status, truncate(body, 256)),
		}
	}
}

// sleepDispatch waits out the failover backoff, reporting false when the
// job context dies first.
func sleepDispatch(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func truncate(b []byte, n int) string {
	s := string(bytes.TrimSpace(b))
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}
