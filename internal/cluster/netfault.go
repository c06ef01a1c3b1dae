package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"afterimage/internal/telemetry"
)

// Injected network-fault errors. They satisfy errors.Is so tests and the
// dispatcher's failure classification can tell an injected fault from a real
// transport error.
var (
	// ErrInjectedDrop is a request the injector discarded without sending.
	ErrInjectedDrop = errors.New("cluster: injected network drop")
	// ErrInjectedPartition is a request to a host the injector has
	// partitioned away.
	ErrInjectedPartition = errors.New("cluster: injected network partition")
)

// NetFaultConfig parameterises the deterministic network-fault injector.
// Like internal/faults, the whole schedule is a pure function of the config:
// the decision for the n-th request to a host is derived from (Seed, host, n)
// by FNV-1a hashing, so two injectors with equal configs fault the identical
// requests in the identical ways — every failover path a chaos run takes is
// reproducible from its seed.
type NetFaultConfig struct {
	// Seed drives every fault decision. Equal seeds replay equal schedules.
	Seed int64
	// DropRate is the probability a request is discarded before sending
	// (the coordinator sees a transport error).
	DropRate float64
	// DelayRate is the probability a request is delayed before sending.
	DelayRate float64
	// MaxDelay bounds an injected delay; the actual delay is a deterministic
	// fraction of it (default 50ms when DelayRate > 0).
	MaxDelay time.Duration
	// DuplicateRate is the probability a request is transmitted twice (the
	// first response is discarded) — the retransmission a flaky network
	// produces. Requests without a rewindable body are never duplicated.
	DuplicateRate float64
	// Registry, when set, receives the cluster.netfault.* counters.
	Registry *telemetry.Registry
}

// Injector is a deterministic fault-injecting http.RoundTripper: it wraps a
// real transport and drops, delays, or duplicates requests on a seeded
// per-host schedule, plus explicit partitions toggled at runtime (a
// partitioned host is unreachable until healed). It is safe for concurrent
// use; each host has its own request sequence counter, so concurrency across
// hosts never perturbs a host's schedule.
type Injector struct {
	cfg  NetFaultConfig
	next http.RoundTripper

	mu          sync.Mutex
	seq         map[string]uint64 // per-host request counter
	partitioned map[string]bool

	drops, delays, duplicates, partitions *telemetry.Counter
}

// NewInjector wraps next (nil means http.DefaultTransport) with the fault
// schedule cfg describes.
func NewInjector(cfg NetFaultConfig, next http.RoundTripper) *Injector {
	if next == nil {
		next = http.DefaultTransport
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	in := &Injector{
		cfg:         cfg,
		next:        next,
		seq:         make(map[string]uint64),
		partitioned: make(map[string]bool),
	}
	if reg := cfg.Registry; reg != nil {
		in.drops = reg.Counter("cluster.netfault.drops")
		in.delays = reg.Counter("cluster.netfault.delays")
		in.duplicates = reg.Counter("cluster.netfault.duplicates")
		in.partitions = reg.Counter("cluster.netfault.partition_rejects")
	}
	return in
}

// Partition makes host (a "host:port") unreachable: every request to it
// fails with ErrInjectedPartition until Heal.
func (in *Injector) Partition(host string) {
	in.mu.Lock()
	in.partitioned[host] = true
	in.mu.Unlock()
}

// Heal reconnects a partitioned host.
func (in *Injector) Heal(host string) {
	in.mu.Lock()
	delete(in.partitioned, host)
	in.mu.Unlock()
}

// Partitioned reports whether host is currently cut off.
func (in *Injector) Partitioned(host string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.partitioned[host]
}

// netFaultDecision is the schedule entry for one request: what the injector
// will do with the n-th request to a host.
type netFaultDecision struct {
	Drop      bool
	Delay     time.Duration
	Duplicate bool
}

// decide computes the deterministic fault decision for the n-th request to
// host. Exported through Schedule for the determinism tests.
func (cfg NetFaultConfig) decide(host string, n uint64) netFaultDecision {
	var d netFaultDecision
	if chance(cfg.Seed, host, n, "drop") < cfg.DropRate {
		d.Drop = true
		return d // a dropped request is never also delayed or duplicated
	}
	if chance(cfg.Seed, host, n, "delay") < cfg.DelayRate {
		frac := chance(cfg.Seed, host, n, "delay-amount")
		d.Delay = time.Duration(float64(cfg.MaxDelay) * frac)
	}
	if chance(cfg.Seed, host, n, "dup") < cfg.DuplicateRate {
		d.Duplicate = true
	}
	return d
}

// Schedule materialises the first n decisions for host — the determinism
// tests' window into the schedule without performing any I/O. It applies the
// same MaxDelay default as NewInjector so the prediction matches the live
// transport.
func (cfg NetFaultConfig) Schedule(host string, n int) []netFaultDecision {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	out := make([]netFaultDecision, n)
	for i := range out {
		out[i] = cfg.decide(host, uint64(i))
	}
	return out
}

// chance maps (seed, host, n, salt) to a uniform [0, 1) — the same FNV-1a
// construction as the runner's backoff jitter, salted per decision so the
// drop, delay, and duplicate draws for one request are independent.
func chance(seed int64, host string, n uint64, salt string) float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], n)
	h.Write(buf[:])
	io.WriteString(h, host)
	io.WriteString(h, salt)
	return float64(h.Sum64()%(1<<20)) / float64(1<<20)
}

// RoundTrip applies the schedule: partition check, then the seeded
// drop/delay/duplicate decision, then the wrapped transport.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	in.mu.Lock()
	if in.partitioned[host] {
		in.mu.Unlock()
		in.partitions.Inc()
		drainBody(req)
		return nil, fmt.Errorf("%w: %s", ErrInjectedPartition, host)
	}
	n := in.seq[host]
	in.seq[host] = n + 1
	in.mu.Unlock()

	d := in.cfg.decide(host, n)
	if d.Drop {
		in.drops.Inc()
		drainBody(req)
		return nil, fmt.Errorf("%w: %s request %d", ErrInjectedDrop, host, n)
	}
	if d.Delay > 0 {
		in.delays.Inc()
		if err := sleepInjected(req.Context(), d.Delay); err != nil {
			drainBody(req)
			return nil, err
		}
	}
	if d.Duplicate && req.GetBody != nil {
		if first, err := in.next.RoundTrip(cloneRequest(req)); err == nil {
			// The duplicate's response is the one the network "lost".
			io.Copy(io.Discard, first.Body)
			first.Body.Close()
			in.duplicates.Inc()
		}
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		req.Body = body
	}
	return in.next.RoundTrip(req)
}

// cloneRequest copies req with a fresh body for the duplicate transmission.
func cloneRequest(req *http.Request) *http.Request {
	c := req.Clone(req.Context())
	if req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			c.Body = body
		}
	}
	return c
}

// drainBody releases a request body the injector decided never to send.
func drainBody(req *http.Request) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
}

// sleepInjected waits out an injected delay, aborting on context expiry as a
// real stalled connection would.
func sleepInjected(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
