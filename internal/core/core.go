// Package core implements the AfterImage attack primitives on top of the
// simulated machine: the training gadget of Listing 6, the two secret-
// extraction back-ends (AfterImage-Cache via Flush+Reload and Prime+Probe,
// §5; AfterImage-PSC via Prefetcher Status Checking, §6.1), the IP-search
// technique for unknown victim IPs (§5.2), and the cross-process covert
// channel (§5.3).
package core

import (
	"fmt"

	"afterimage/internal/mem"
	"afterimage/internal/sim"
)

// LineSize re-exports the cache line size for stride arithmetic.
const LineSize = mem.LineSize

// LinesPerPage is the number of cache lines in one 4 KiB page.
const LinesPerPage = mem.PageSize / mem.LineSize

// Reserved low-8 IP values for the attacker's own measurement loads, chosen
// so they never collide with trained entries (trained low-8 values must
// avoid these).
const (
	ReloadIPLow8 = 0xE8 // Flush+Reload reload loop
	ProbeIPLow8  = 0xE0 // Prime+Probe probe loop
	PSCIPLow8    = 0xEC // PSC measurement load
)

// IPWithLow8 builds an instruction pointer whose least-significant 8 bits
// are the given value — the only bits the IP-stride prefetcher indexes with
// (§4.1). The high bits distinguish the attacker's own code locations.
func IPWithLow8(base uint64, low8 uint8) uint64 {
	return (base &^ 0xFF) | uint64(low8)
}

// TrainEntry is one (IP, stride) pair of the Listing 6 gadget.
type TrainEntry struct {
	IP          uint64
	StrideLines int64 // stride in cache lines (must be non-zero, |s| < 32 to stay in-page over 3 rounds)
}

// StrideBytes converts the line stride to bytes.
func (t TrainEntry) StrideBytes() int64 { return t.StrideLines * LineSize }

// Gadget is the attacker's local masquerade of the victim's loads: one
// training page per entry, loads issued from IPs whose low 8 bits match the
// victim's (Listing 6).
type Gadget struct {
	Entries []TrainEntry
	pages   []*mem.Mapping
}

// NewGadget allocates one locked training page per entry.
func NewGadget(env *sim.Env, entries []TrainEntry) (*Gadget, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: gadget needs at least one entry")
	}
	g := &Gadget{Entries: append([]TrainEntry(nil), entries...)}
	for _, e := range entries {
		if e.StrideLines == 0 {
			return nil, fmt.Errorf("core: zero stride for IP %#x", e.IP)
		}
		g.pages = append(g.pages, env.Mmap(mem.PageSize, mem.MapLocked))
	}
	return g, nil
}

// MustNewGadget panics on error (tests, examples).
func MustNewGadget(env *sim.Env, entries []TrainEntry) *Gadget {
	g, err := NewGadget(env, entries)
	if err != nil {
		panic(err)
	}
	return g
}

// Train executes the gadget for the given number of rounds (≥ 3 to saturate
// the 2-bit confidence counter, §4.2). Strided offsets are kept inside one
// page; overly long training for a large stride wraps to a fresh ramp.
func (g *Gadget) Train(env *sim.Env, rounds int) {
	for i := 0; i < rounds; i++ {
		for j, e := range g.Entries {
			stride := e.StrideBytes()
			span := int64(mem.PageSize) - abs64(stride)
			if span <= 0 {
				span = 1
			}
			steps := span/abs64(stride) + 1 // offsets per in-page ramp
			k := int64(i) % steps
			off := k * stride
			if stride < 0 {
				off = int64(mem.PageSize) - LineSize + k*stride
			}
			env.WarmTLB(g.pages[j].Base) // threat model: pages TLB-resident
			env.Load(e.IP, g.pages[j].Base+mem.VAddr(off))
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// DetectStride inspects the cached-line indices of one page and reports
// which of the candidate line-strides appears as the distance between two
// hits. The boolean is false when no candidate matches.
func DetectStride(hitLines []int, candidates []int64) (int64, bool) {
	present := make(map[int]bool, len(hitLines))
	for _, l := range hitLines {
		present[l] = true
	}
	for _, s := range candidates {
		for _, l := range hitLines {
			if t := int64(l) + s; t >= 0 && t < LinesPerPage && present[int(t)] {
				return s, true
			}
		}
	}
	return 0, false
}

// BestStride returns the most plausible stride among all pairwise hit
// distances, preferring candidate strides; used by the covert-channel
// receiver where the symbol *is* the stride.
func BestStride(hitLines []int) (int64, bool) {
	if len(hitLines) < 2 {
		return 0, false
	}
	// The trigger line and the prefetched line are usually the only hits;
	// with noise, take the distance between the two strongest adjacent
	// hits: smallest positive distance > 4 lines (noise prefetchers cover
	// ≤ 4, §7.1), falling back to the largest distance.
	best := int64(-1)
	for i := 0; i < len(hitLines); i++ {
		for j := i + 1; j < len(hitLines); j++ {
			d := int64(hitLines[j] - hitLines[i])
			if d < 0 {
				d = -d
			}
			if d > 4 && (best == -1 || d < best) {
				best = d
			}
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}
