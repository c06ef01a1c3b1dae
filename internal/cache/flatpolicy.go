package cache

import (
	"fmt"

	"afterimage/internal/detrand"
)

// PolicyKind enumerates the built-in replacement policies.
type PolicyKind int

const (
	// LRU is true least-recently-used.
	LRU PolicyKind = iota
	// FIFO evicts in insertion order, ignoring hits.
	FIFO
	// BitPLRU is the MRU-bit approximation of LRU that §4.5 identifies in
	// the IP-stride prefetcher.
	BitPLRU
	// TreePLRU is the binary-tree approximation common in cache ways.
	TreePLRU
	// RandomPolicy evicts a pseudo-random way (seeded, deterministic).
	RandomPolicy
)

// String names the kind.
func (k PolicyKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case BitPLRU:
		return "Bit-PLRU"
	case TreePLRU:
		return "Tree-PLRU"
	case RandomPolicy:
		return "Random"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// maxTreeWays is the widest Tree-PLRU set the engine builds: a set's tree
// packs into one word, node i at bit i, so it has at most 64 nodes.
const maxTreeWays = 64

// CheckWays reports whether the engine can build policy k over sets of the
// given width: the kind must be a built-in one, and Tree-PLRU takes at most
// 64 ways. Config.Validate and the prefetcher's IPStrideConfig.Validate
// both apply it.
func (k PolicyKind) CheckWays(ways int) error {
	switch k {
	case LRU, FIFO, BitPLRU, RandomPolicy:
		return nil
	case TreePLRU:
		if ways > maxTreeWays {
			return fmt.Errorf("%v supports at most %d ways, got %d", k, maxTreeWays, ways)
		}
		return nil
	default:
		return fmt.Errorf("unknown replacement policy %v", k)
	}
}

// PolicyArray is the replacement engine: the state of one policy for a
// number of sets, held in contiguous slices indexed by set number g. A
// cache level keeps one engine over all its sets (g = slice*nsets+set),
// and the IP-stride prefetcher's history table is a one-set engine. There
// are no per-set objects and no interface dispatch on the access path.
type PolicyArray struct {
	kind PolicyKind
	ways int

	// LRU and FIFO: a virtual clock per set and one stamp per way
	// (last-touch time for LRU, insertion time for FIFO).
	clocks []uint64 // [g]
	stamps []uint64 // [g*ways+way]

	// BitPLRU: one MRU bit per way plus the ones count per set.
	mru  []bool  // [g*ways+way]
	ones []int32 // [g]

	// TreePLRU: the internal nodes of a complete binary tree per set,
	// packed one word per set with node i at bit i; tnodes is the round-up
	// power of two of ways (nodes 1..tnodes-1 used). A touch is two
	// precomputed masks instead of a walk from the root.
	twords []uint64 // [g]
	tsetM  []uint64 // [way] bits a touch of this way sets
	tclrM  []uint64 // [way] bits a touch of this way clears
	tnodes int

	// Random: one counting source per set.
	srcs []*detrand.Source // [g]
}

// NewPolicyArray builds the engine for sets sets of the given kind and
// width. It panics on a kind and width CheckWays rejects. seedOf gives set
// g's seed; only RandomPolicy consumes it.
func NewPolicyArray(kind PolicyKind, sets, ways int, seedOf func(g int) int64) *PolicyArray {
	if err := kind.CheckWays(ways); err != nil {
		panic("cache: " + err.Error())
	}
	pa := &PolicyArray{kind: kind, ways: ways}
	switch kind {
	case LRU, FIFO:
		pa.clocks = make([]uint64, sets)
		pa.stamps = make([]uint64, sets*ways)
	case BitPLRU:
		pa.mru = make([]bool, sets*ways)
		pa.ones = make([]int32, sets)
	case TreePLRU:
		n := 1
		for n < ways {
			n <<= 1
		}
		pa.tnodes = n
		pa.twords = make([]uint64, sets)
		pa.tsetM = make([]uint64, ways)
		pa.tclrM = make([]uint64, ways)
		for w := 0; w < ways; w++ {
			idx := n + w
			for idx > 1 {
				parent := idx / 2
				if idx%2 == 0 {
					pa.tsetM[w] |= 1 << uint(parent)
				} else {
					pa.tclrM[w] |= 1 << uint(parent)
				}
				idx = parent
			}
		}
	case RandomPolicy:
		pa.srcs = make([]*detrand.Source, sets)
		for g := range pa.srcs {
			pa.srcs[g] = detrand.NewSource(seedOf(g))
		}
	}
	return pa
}

func (pa *PolicyArray) name() string { return pa.kind.String() }

// Touch records a hit on way w of set g.
func (pa *PolicyArray) Touch(g, w int) {
	switch pa.kind {
	case LRU:
		pa.clocks[g]++
		pa.stamps[g*pa.ways+w] = pa.clocks[g]
	case BitPLRU:
		// A touch sets the way's bit; when that would make all bits one,
		// every other bit is cleared first (the textbook Bit-PLRU, which
		// reproduces the eviction patterns of Figures 8a and 8b).
		mru := pa.mru[g*pa.ways : (g+1)*pa.ways]
		if !mru[w] {
			pa.ones[g]++
			mru[w] = true
		}
		if int(pa.ones[g]) == pa.ways {
			for i := range mru {
				mru[i] = false
			}
			mru[w] = true
			pa.ones[g] = 1
		}
	case TreePLRU:
		pa.twords[g] = (pa.twords[g] &^ pa.tclrM[w]) | pa.tsetM[w]
	case FIFO, RandomPolicy:
		// recency-blind
	}
}

// Victim selects the way to evict from set g without changing state,
// except that RandomPolicy consumes one source draw.
func (pa *PolicyArray) Victim(g int) int {
	switch pa.kind {
	case LRU, FIFO:
		stamps := pa.stamps[g*pa.ways : (g+1)*pa.ways]
		best, bestStamp := 0, stamps[0]
		for i := 1; i < len(stamps); i++ {
			if s := stamps[i]; s < bestStamp {
				best, bestStamp = i, s
			}
		}
		return best
	case BitPLRU:
		// The lowest-indexed way whose bit is clear.
		mru := pa.mru[g*pa.ways : (g+1)*pa.ways]
		for i := range mru {
			if !mru[i] {
				return i
			}
		}
		return 0 // unreachable: Touch never leaves all bits set
	case TreePLRU:
		word := pa.twords[g]
		idx := 1
		for idx < pa.tnodes {
			idx = 2*idx + int((word>>uint(idx))&1)
		}
		// Widths that are not a power of two re-map leaves past the last
		// way onto it.
		return min(idx-pa.tnodes, pa.ways-1)
	default: // RandomPolicy
		return int(pa.srcs[g].Int63() % int64(pa.ways))
	}
}

// Insert records that way w of set g was (re)filled.
func (pa *PolicyArray) Insert(g, w int) {
	switch pa.kind {
	case FIFO:
		pa.clocks[g]++
		pa.stamps[g*pa.ways+w] = pa.clocks[g]
	case RandomPolicy:
		// stateless
	default:
		pa.Touch(g, w)
	}
}

// SaveInto appends set g's replacement state to dst as words, in the
// layout the state hash folds: [clock, stamps...] for LRU and FIFO,
// [ones, bits...] for Bit-PLRU, one 0/1 word per tree node (node 0
// included) for Tree-PLRU, and [draws] for Random.
func (pa *PolicyArray) SaveInto(dst []uint64, g int) []uint64 {
	switch pa.kind {
	case LRU, FIFO:
		dst = append(dst, pa.clocks[g])
		return append(dst, pa.stamps[g*pa.ways:(g+1)*pa.ways]...)
	case BitPLRU:
		dst = append(dst, uint64(pa.ones[g]))
		for _, b := range pa.mru[g*pa.ways : (g+1)*pa.ways] {
			if b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
		return dst
	case TreePLRU:
		word := pa.twords[g]
		for i := 0; i < pa.tnodes; i++ {
			dst = append(dst, (word>>uint(i))&1)
		}
		return dst
	default: // RandomPolicy
		return append(dst, pa.srcs[g].Draws())
	}
}

// Audit checks set g's structural invariants and describes the first
// violation, or returns nil. LRU and FIFO stamps never run ahead of their
// set's clock; a Bit-PLRU ones counter matches the population count, and
// at least one MRU bit is always clear (Touch resets the all-ones state
// eagerly, never stores it). Tree and Random states are always legal.
func (pa *PolicyArray) Audit(g int) error {
	switch pa.kind {
	case LRU, FIFO:
		base := g * pa.ways
		for i := 0; i < pa.ways; i++ {
			if pa.stamps[base+i] > pa.clocks[g] {
				return fmt.Errorf("%s: way %d stamp %d ahead of clock %d", pa.name(), i, pa.stamps[base+i], pa.clocks[g])
			}
		}
		return nil
	case BitPLRU:
		pop := 0
		for _, b := range pa.mru[g*pa.ways : (g+1)*pa.ways] {
			if b {
				pop++
			}
		}
		if pop != int(pa.ones[g]) {
			return fmt.Errorf("Bit-PLRU: ones counter %d != popcount %d", pa.ones[g], pop)
		}
		if pop == pa.ways && pa.ways > 0 {
			return fmt.Errorf("Bit-PLRU: all %d MRU bits set (all-ones state must never persist)", pop)
		}
		return nil
	default:
		return nil
	}
}

// sound reports whether Audit(g) would return nil, without building an
// error: the per-set fast path of Cache.Audit.
func (pa *PolicyArray) sound(g int) bool {
	switch pa.kind {
	case LRU, FIFO:
		clock := pa.clocks[g]
		for _, s := range pa.stamps[g*pa.ways : (g+1)*pa.ways] {
			if s > clock {
				return false
			}
		}
		return true
	case BitPLRU:
		pop := 0
		for _, b := range pa.mru[g*pa.ways : (g+1)*pa.ways] {
			if b {
				pop++
			}
		}
		return pop == int(pa.ones[g]) && (pop != pa.ways || pa.ways == 0)
	default:
		return true
	}
}

// CorruptBitPLRU forces set g into the forbidden all-ones state (every MRU
// bit set, counter agreeing), which Touch can never produce and Audit must
// flag. It reports false when the engine is not Bit-PLRU.
func (pa *PolicyArray) CorruptBitPLRU(g int) bool {
	if pa.kind != BitPLRU {
		return false
	}
	mru := pa.mru[g*pa.ways : (g+1)*pa.ways]
	for i := range mru {
		mru[i] = true
	}
	pa.ones[g] = int32(pa.ways)
	return true
}
