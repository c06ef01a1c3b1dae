package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"afterimage/internal/telemetry"
)

// admission is the server's two-level admission controller:
//
//   - Per-tenant quota: a tenant may have at most tenantQuota campaigns
//     executing or queued. The quota check never queues — a tenant over its
//     quota is told 429 + Retry-After immediately, so one tenant cannot
//     occupy the shared queue.
//   - Global slots: at most maxConcurrent campaigns execute at once; up to
//     queueDepth more wait in a bounded admission queue. Beyond that the
//     server sheds load with 429 + Retry-After instead of queueing
//     unboundedly — under overload, fast rejection is the only behaviour
//     that keeps latency bounded for the traffic that is admitted.
//
// Cache hits and single-flight joins bypass admission entirely; only work
// that will actually occupy a simulator passes through here.
type admission struct {
	sem        chan struct{} // global execution slots
	queued     atomic.Int64  // campaigns waiting for a slot
	queueDepth int64

	tenantQuota int
	mu          sync.Mutex
	tenants     map[string]int // tenant → campaigns admitted and not yet released

	retryAfter time.Duration

	shed, quotaRejected, admitted *telemetry.Counter
	waiting                       *telemetry.Gauge
	queueWait                     *telemetry.Histogram
}

// queueWaitBounds bucket the admission wait (µs): sub-millisecond when slots
// are free, up to tens of seconds when the queue is the bottleneck.
var queueWaitBounds = []uint64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

func newAdmission(maxConcurrent, queueDepth, tenantQuota int, retryAfter time.Duration, reg *telemetry.Registry) *admission {
	a := &admission{
		sem:         make(chan struct{}, maxConcurrent),
		queueDepth:  int64(queueDepth),
		tenantQuota: tenantQuota,
		tenants:     make(map[string]int),
		retryAfter:  retryAfter,
	}
	if reg != nil {
		a.shed = reg.Counter("server.admission.shed")
		a.quotaRejected = reg.Counter("server.admission.quota_rejected")
		a.admitted = reg.Counter("server.admission.admitted")
		a.waiting = reg.Gauge("server.admission.queued")
		a.queueWait = reg.Histogram("server.queue.wait.us", queueWaitBounds)
	}
	return a
}

// acquire admits one campaign for tenant, blocking in the bounded queue when
// all execution slots are busy. It returns a release closure on success and
// an *apiError (429/503) when the tenant is over quota, the queue is full,
// or ctx ends while waiting. release is idempotent.
func (a *admission) acquire(ctx context.Context, tenant string) (func(), *apiError) {
	a.mu.Lock()
	if a.tenants[tenant] >= a.tenantQuota {
		a.mu.Unlock()
		a.quotaRejected.Inc()
		return nil, &apiError{
			Status:     429,
			Msg:        fmt.Sprintf("tenant %q is at its quota of %d concurrent campaigns", tenant, a.tenantQuota),
			RetryAfter: a.retryAfter,
		}
	}
	a.tenants[tenant]++
	a.mu.Unlock()

	releaseTenant := func() {
		a.mu.Lock()
		if a.tenants[tenant]--; a.tenants[tenant] <= 0 {
			delete(a.tenants, tenant)
		}
		a.mu.Unlock()
	}

	enqueued := time.Now()
	select {
	case a.sem <- struct{}{}:
		// A free slot admits at once. Only a campaign that has to wait
		// counts against the queue depth, so concurrent arrivals at free
		// slots are never shed as if the queue were full.
	default:
		if n := a.queued.Add(1); n > a.queueDepth {
			a.queued.Add(-1)
			releaseTenant()
			a.shed.Inc()
			return nil, &apiError{
				Status:     429,
				Msg:        fmt.Sprintf("admission queue is full (%d waiting)", a.queueDepth),
				RetryAfter: a.retryAfter,
			}
		}
		a.waiting.Set(a.queued.Load())
		select {
		case a.sem <- struct{}{}:
		case <-ctx.Done():
			a.queued.Add(-1)
			releaseTenant()
			return nil, &apiError{Status: 503, Msg: "canceled while queued for admission", RetryAfter: a.retryAfter}
		}
		a.queued.Add(-1)
		a.waiting.Set(a.queued.Load())
	}
	a.queueWait.Observe(uint64(time.Since(enqueued).Microseconds()))
	a.admitted.Inc()

	var once sync.Once
	return func() {
		once.Do(func() {
			<-a.sem
			releaseTenant()
		})
	}, nil
}
