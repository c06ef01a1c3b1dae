package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is a 2-vCPU guest whose speed drifts by up to 2x over
// seconds to minutes as other tenants load the machine: both the core's
// speed and, more, the latency of memory beyond the 2 MB L2 change. That is
// far more than any bound a regression check could use. The load loop
// therefore pauses every sliceLen, with no operation in flight, to probe the
// host on every vCPU the load uses, and reports every time it measured at
// reference host speed: wall time multiplied by the host's speed relative to
// the reference host (hostSpeed). README.md gives the calibration behind the
// probe and its formula.

// sliceLen is how long the load runs between two probes.
const sliceLen = time.Second

// cpuProbeIters is one compute-probe repetition: a dependent multiply and
// xor-shift chain that touches no memory, so its time follows only the
// speed the host gives the vCPU it runs on.
const cpuProbeIters = 1 << 19

// cpuProbeReps is how many compute repetitions each probe goroutine runs; it
// keeps the fastest, which discards repetitions a GC worker preempted.
const cpuProbeReps = 3

// The memory probe walks a random cycle through memLines cache lines of a
// chain buffer twice and times the second walk: the lines were just loaded
// but, at 2 MB, do not all fit in the L2, so the walk times the latency of
// the cache levels behind it, which is what drifts.
const (
	memChainBytes = 16 << 20
	memLines      = 32768
	lineBytes     = 64
)

// Reference host: one compute repetition and one memory-probe load at
// reference speed, in a quiet period. They set the scale of adjusted times.
const (
	refCPU = 1100 * time.Microsecond
	refMem = 75.0 // ns per load
)

var probeSink atomic.Uint64

// probeSample is one probe: the compute repetition's time and the memory
// walk's time per load in ns, each a mean over the probe goroutines.
type probeSample struct {
	cpu time.Duration
	mem float64
}

// hostProbe holds one chain buffer per probe goroutine. The buffers are
// mapped outside the Go heap, so they neither add to the heap the benchmark
// reports nor change when the collector runs.
type hostProbe struct {
	chains [][]uint32
	maps   [][]byte
}

// newHostProbe maps n chain buffers, each holding one random cycle through
// its lines: the first word of each line is the index of the next line's
// first word.
func newHostProbe(n int) (*hostProbe, error) {
	p := &hostProbe{}
	lines := memChainBytes / lineBytes
	words := lineBytes / 4
	for g := 0; g < n; g++ {
		m, err := syscall.Mmap(-1, 0, memChainBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("map probe buffer: %w", err)
		}
		p.maps = append(p.maps, m)
		chain := unsafe.Slice((*uint32)(unsafe.Pointer(&m[0])), len(m)/4)
		order := rand.New(rand.NewSource(int64(g) + 1)).Perm(lines)
		for i, l := range order {
			chain[l*words] = uint32(order[(i+1)%lines] * words)
		}
		p.chains = append(p.chains, chain)
	}
	return p, nil
}

func (p *hostProbe) close() {
	for _, m := range p.maps {
		syscall.Munmap(m)
	}
	p.maps, p.chains = nil, nil
}

// measure probes all vCPUs at once, one goroutine per chain buffer.
func (p *hostProbe) measure() probeSample {
	n := len(p.chains)
	cpu := make([]time.Duration, n)
	mem := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < cpuProbeReps; r++ {
				if d := cpuProbe(); r == 0 || d < cpu[g] {
					cpu[g] = d
				}
			}
			walk(p.chains[g])
			t0 := time.Now()
			walk(p.chains[g])
			mem[g] = float64(time.Since(t0).Nanoseconds()) / memLines
		}(g)
	}
	wg.Wait()
	var s probeSample
	for g := 0; g < n; g++ {
		s.cpu += cpu[g] / time.Duration(n)
		s.mem += mem[g] / float64(n)
	}
	return s
}

func cpuProbe() time.Duration {
	t0 := time.Now()
	x := uint64(t0.UnixNano()) | 1
	for i := 0; i < cpuProbeIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	d := time.Since(t0)
	probeSink.Add(x)
	return d
}

func walk(chain []uint32) {
	i := uint32(0)
	for k := 0; k < memLines; k++ {
		i = chain[i]
	}
	probeSink.Add(uint64(i))
}

// hostSpeed is the host's speed between probes a and b relative to the
// reference host. A host at half speed takes twice as long, so adjusted time
// = wall time * hostSpeed. Speed scales with the compute probe and with the
// cube root of the memory probe: of the exponents tried on the reference
// host's calibration runs, that one left the smallest run-to-run spread on
// the workload with the largest (README.md).
func hostSpeed(a, b probeSample) float64 {
	cpu := float64(a.cpu+b.cpu) / 2
	mem := (a.mem + b.mem) / 2
	return float64(refCPU) / cpu * math.Cbrt(refMem/mem)
}
