package cache

import (
	"fmt"

	"afterimage/internal/detrand"
)

// policyArray is the flattened per-set replacement state of one cache
// level: one engine instance holds the state of EVERY set in contiguous
// slices, indexed by global set number (slice-major, g = slice*nsets+set).
// It replaces the seed layout of one heap-allocated Policy object per set,
// eliminating both the per-set allocations and the per-access interface
// dispatch, while implementing the exact same state machines — Save/Load
// layouts, victim choice and audit rules are bit-compatible with the
// standalone policies in replacement.go (which remain the reference
// implementations, still used by the prefetcher's history table and by the
// equivalence tests).
type policyArray struct {
	kind PolicyKind
	ways int

	// LRU and FIFO: a virtual clock per set and one stamp per way
	// (last-touch time for LRU, insertion time for FIFO).
	clocks []uint64 // [gset]
	stamps []uint64 // [gset*ways+way]

	// BitPLRU: one MRU bit per way plus the ones count per set.
	mru  []bool  // [gset*ways+way]
	ones []int32 // [gset]

	// TreePLRU: the internal nodes of a complete binary tree per set;
	// tnodes is the round-up power of two of ways (bits 1..tnodes-1 used).
	// When the tree fits a machine word (tnodes ≤ 64, i.e. ways ≤ 64 —
	// every modelled cache), the nodes are packed one word per set with
	// node i at bit i, and a touch is two precomputed masks instead of a
	// root walk; larger trees fall back to the per-node bool slice.
	tbits   []bool   // [gset*tnodes+node] (only when !tpacked)
	twords  []uint64 // [gset] packed tree (only when tpacked)
	tsetM   []uint64 // [way] bits a touch of this way sets
	tclrM   []uint64 // [way] bits a touch of this way clears
	tpacked bool
	tnodes  int

	// Random: one counting source per set, seeded exactly as the seed code
	// seeded its per-set randomPolicy instances.
	srcs []*detrand.Source // [gset]
}

// newPolicyArray builds the flat engine for gsets sets of the given kind.
// seedOf must reproduce the per-set seed the seed implementation used
// (PolicySeed + slice*1000 + set); only RandomPolicy consumes it.
func newPolicyArray(kind PolicyKind, gsets, ways int, seedOf func(g int) int64) *policyArray {
	pa := &policyArray{kind: kind, ways: ways}
	switch kind {
	case LRU, FIFO:
		pa.clocks = make([]uint64, gsets)
		pa.stamps = make([]uint64, gsets*ways)
	case BitPLRU:
		pa.mru = make([]bool, gsets*ways)
		pa.ones = make([]int32, gsets)
	case TreePLRU:
		n := 1
		for n < ways {
			n <<= 1
		}
		pa.tnodes = n
		if n <= 64 {
			pa.tpacked = true
			pa.twords = make([]uint64, gsets)
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
		} else {
			pa.tbits = make([]bool, gsets*n)
		}
	case RandomPolicy:
		pa.srcs = make([]*detrand.Source, gsets)
		for g := range pa.srcs {
			pa.srcs[g] = detrand.NewSource(seedOf(g))
		}
	default:
		panic(fmt.Sprintf("cache: unknown policy kind %v", kind))
	}
	return pa
}

func (pa *policyArray) name() string { return PolicyKind(pa.kind).String() }

// touch records a hit on way w of global set g.
func (pa *policyArray) touch(g, w int) {
	switch pa.kind {
	case LRU:
		pa.clocks[g]++
		pa.stamps[g*pa.ways+w] = pa.clocks[g]
	case BitPLRU:
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
		if pa.tpacked {
			pa.twords[g] = (pa.twords[g] &^ pa.tclrM[w]) | pa.tsetM[w]
			return
		}
		tbits := pa.tbits[g*pa.tnodes : (g+1)*pa.tnodes]
		idx := pa.tnodes + w
		for idx > 1 {
			parent := idx / 2
			tbits[parent] = idx%2 == 0
			idx = parent
		}
	case FIFO, RandomPolicy:
		// recency-blind
	}
}

// victim selects the way to evict from global set g without changing state
// (except RandomPolicy, which consumes one source draw like the seed code).
func (pa *policyArray) victim(g int) int {
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
		mru := pa.mru[g*pa.ways : (g+1)*pa.ways]
		for i := range mru {
			if !mru[i] {
				return i
			}
		}
		return 0 // unreachable: touch never leaves all bits set
	case TreePLRU:
		var v int
		if pa.tpacked {
			word := pa.twords[g]
			idx := 1
			for idx < pa.tnodes {
				idx = 2*idx + int((word>>uint(idx))&1)
			}
			v = idx - pa.tnodes
		} else {
			tbits := pa.tbits[g*pa.tnodes : (g+1)*pa.tnodes]
			idx := 1
			for idx < pa.tnodes {
				if tbits[idx] {
					idx = 2*idx + 1
				} else {
					idx = 2 * idx
				}
			}
			v = idx - pa.tnodes
		}
		if v >= pa.ways {
			v = pa.ways - 1
		}
		return v
	default: // RandomPolicy
		return int(pa.srcs[g].Int63() % int64(pa.ways))
	}
}

// insert records that way w of global set g was (re)filled.
func (pa *policyArray) insert(g, w int) {
	switch pa.kind {
	case FIFO:
		pa.clocks[g]++
		pa.stamps[g*pa.ways+w] = pa.clocks[g]
	case RandomPolicy:
		// stateless
	default:
		pa.touch(g, w)
	}
}

// save serialises set g's replacement state in the layout of the matching
// standalone policy, so snapshots taken before and after the flattening are
// interchangeable and StateHash digests stay bit-identical.
func (pa *policyArray) save(g int) []uint64 {
	switch pa.kind {
	case LRU, FIFO:
		out := make([]uint64, 1+pa.ways)
		out[0] = pa.clocks[g]
		copy(out[1:], pa.stamps[g*pa.ways:(g+1)*pa.ways])
		return out
	case BitPLRU:
		out := make([]uint64, 1+pa.ways)
		out[0] = uint64(pa.ones[g])
		base := g * pa.ways
		for i := 0; i < pa.ways; i++ {
			if pa.mru[base+i] {
				out[1+i] = 1
			}
		}
		return out
	case TreePLRU:
		out := make([]uint64, pa.tnodes)
		if pa.tpacked {
			word := pa.twords[g]
			for i := range out {
				out[i] = (word >> uint(i)) & 1
			}
			return out
		}
		base := g * pa.tnodes
		for i := range out {
			if pa.tbits[base+i] {
				out[i] = 1
			}
		}
		return out
	default: // RandomPolicy
		return []uint64{pa.srcs[g].Draws()}
	}
}

// saveInto is save without the allocation: it appends set g's state to dst
// (for the hash path, which discards the words immediately).
func (pa *policyArray) saveInto(dst []uint64, g int) []uint64 {
	switch pa.kind {
	case LRU, FIFO:
		dst = append(dst, pa.clocks[g])
		return append(dst, pa.stamps[g*pa.ways:(g+1)*pa.ways]...)
	case BitPLRU:
		dst = append(dst, uint64(pa.ones[g]))
		base := g * pa.ways
		for i := 0; i < pa.ways; i++ {
			if pa.mru[base+i] {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
		return dst
	case TreePLRU:
		if pa.tpacked {
			word := pa.twords[g]
			for i := 0; i < pa.tnodes; i++ {
				dst = append(dst, (word>>uint(i))&1)
			}
			return dst
		}
		base := g * pa.tnodes
		for i := 0; i < pa.tnodes; i++ {
			if pa.tbits[base+i] {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
		return dst
	default: // RandomPolicy
		return append(dst, pa.srcs[g].Draws())
	}
}

// load adopts previously saved state for set g verbatim — like the
// standalone policies, no sanitisation, so corrupted saves stick and audit
// observes them.
func (pa *policyArray) load(g int, state []uint64) {
	switch pa.kind {
	case LRU, FIFO:
		pa.clocks[g] = state[0]
		copy(pa.stamps[g*pa.ways:(g+1)*pa.ways], state[1:])
	case BitPLRU:
		pa.ones[g] = int32(state[0])
		base := g * pa.ways
		for i := 0; i < pa.ways; i++ {
			pa.mru[base+i] = state[1+i] != 0
		}
	case TreePLRU:
		if pa.tpacked {
			var word uint64
			for i := 0; i < pa.tnodes; i++ {
				if state[i] != 0 {
					word |= 1 << uint(i)
				}
			}
			pa.twords[g] = word
			return
		}
		base := g * pa.tnodes
		for i := 0; i < pa.tnodes; i++ {
			pa.tbits[base+i] = state[i] != 0
		}
	default: // RandomPolicy
		pa.srcs[g].Restore(state[0])
	}
}

// audit checks set g's structural invariants, mirroring the standalone
// policies' Audit rules (including the exact error strings, which the
// fault-injection tests match on).
func (pa *policyArray) audit(g int) error {
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
		base := g * pa.ways
		pop := 0
		for i := 0; i < pa.ways; i++ {
			if pa.mru[base+i] {
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

// sound reports whether audit(g) would return nil, without building an
// error: the per-set fast path of Cache.Audit.
func (pa *policyArray) sound(g int) bool {
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

// setPolicyView adapts one global set of a policyArray to the Policy
// interface, so PolicyAt keeps handing fault injection and tests a mutable
// per-set policy object after the flattening.
type setPolicyView struct {
	pa *policyArray
	g  int
}

func (v *setPolicyView) Touch(way int)       { v.pa.touch(v.g, way) }
func (v *setPolicyView) Victim() int         { return v.pa.victim(v.g) }
func (v *setPolicyView) Insert(way int)      { v.pa.insert(v.g, way) }
func (v *setPolicyView) Name() string        { return v.pa.name() }
func (v *setPolicyView) Save() []uint64      { return v.pa.save(v.g) }
func (v *setPolicyView) Load(state []uint64) { v.pa.load(v.g, state) }
func (v *setPolicyView) Audit() error        { return v.pa.audit(v.g) }

// corruptViewBitPLRU is CorruptBitPLRU for a flattened set view.
func corruptViewBitPLRU(v *setPolicyView) bool {
	if v.pa.kind != BitPLRU || v.pa.ways == 0 {
		return false
	}
	base := v.g * v.pa.ways
	for i := 0; i < v.pa.ways; i++ {
		v.pa.mru[base+i] = true
	}
	v.pa.ones[v.g] = int32(v.pa.ways)
	return true
}
