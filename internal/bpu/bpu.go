// Package bpu implements a branch-prediction unit — a BTB plus a gshare
// direction predictor — as the comparison baseline of §9.2: BPU-based
// attacks (Spectre-style) must mistrain a branch target buffer that is
// looked up with ~20 instruction-pointer bits, so ASLR forces the attacker
// to spray candidate addresses and mistraining costs ~26 000 cycles, while
// AfterImage's prefetcher uses only 8 untagged IP bits and trains in 3–4
// loads (1 000–2 000 cycles).
package bpu

// Config shapes the BPU.
type Config struct {
	// BTBEntries and BTBIndexBits shape the branch target buffer; the BTB
	// lookup matches MatchBits low IP bits in total (index + partial tag),
	// 20 on the parts the paper cites.
	BTBEntries   int
	BTBIndexBits int
	MatchBits    int
	// PHTEntries is the gshare pattern-history-table size (2-bit counters).
	PHTEntries int
	// HistoryBits is the global-history length folded into the PHT index.
	HistoryBits int
}

// DefaultConfig models a small modern BPU (4096-entry BTB, 20 matched IP
// bits, 16-bit gshare).
func DefaultConfig() Config {
	return Config{
		BTBEntries:   4096,
		BTBIndexBits: 12,
		MatchBits:    20,
		PHTEntries:   1 << 14,
		HistoryBits:  12,
	}
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// BPU is the predictor.
type BPU struct {
	cfg     Config
	btb     []btbEntry
	pht     []uint8 // 2-bit saturating counters, initialised weakly taken
	history uint64

	lookups     uint64
	mispredicts uint64
}

// New builds a BPU.
func New(cfg Config) *BPU {
	if cfg.BTBEntries <= 0 || cfg.PHTEntries <= 0 || cfg.MatchBits < cfg.BTBIndexBits {
		panic("bpu: invalid config")
	}
	b := &BPU{cfg: cfg, btb: make([]btbEntry, cfg.BTBEntries), pht: make([]uint8, cfg.PHTEntries)}
	for i := range b.pht {
		b.pht[i] = 1 // weakly not-taken
	}
	return b
}

func (b *BPU) btbIndex(ip uint64) uint64 {
	return ip & ((1 << uint(b.cfg.BTBIndexBits)) - 1) % uint64(len(b.btb))
}

// btbTag is the partial tag: the matched IP bits above the index.
func (b *BPU) btbTag(ip uint64) uint64 {
	return (ip >> uint(b.cfg.BTBIndexBits)) & ((1 << uint(b.cfg.MatchBits-b.cfg.BTBIndexBits)) - 1)
}

func (b *BPU) phtIndex(ip uint64) uint64 {
	h := b.history & ((1 << uint(b.cfg.HistoryBits)) - 1)
	return (ip ^ h) % uint64(len(b.pht))
}

// Prediction is one BPU answer.
type Prediction struct {
	Taken  bool
	Target uint64
	BTBHit bool
}

// Predict consults the predictor without updating it.
func (b *BPU) Predict(ip uint64) Prediction {
	e := b.btb[b.btbIndex(ip)]
	hit := e.valid && e.tag == b.btbTag(ip)
	taken := b.pht[b.phtIndex(ip)] >= 2
	p := Prediction{Taken: taken, BTBHit: hit}
	if hit {
		p.Target = e.target
	}
	return p
}

// Update resolves a branch: it trains the direction counter, installs the
// target, advances the global history, and reports whether the prediction
// would have been wrong.
func (b *BPU) Update(ip uint64, taken bool, target uint64) (mispredicted bool) {
	b.lookups++
	p := b.Predict(ip)
	mispredicted = p.Taken != taken || (taken && (!p.BTBHit || p.Target != target))
	if mispredicted {
		b.mispredicts++
	}
	idx := b.phtIndex(ip)
	if taken {
		if b.pht[idx] < 3 {
			b.pht[idx]++
		}
		b.btb[b.btbIndex(ip)] = btbEntry{tag: b.btbTag(ip), target: target, valid: true}
	} else if b.pht[idx] > 0 {
		b.pht[idx]--
	}
	b.history = b.history<<1 | boolBit(taken)
	return mispredicted
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Stats reports lookups and mispredictions.
func (b *BPU) Stats() (lookups, mispredicts uint64) { return b.lookups, b.mispredicts }

// MistrainCost estimates the §9.2 comparison: the cycles an attacker needs
// to inject a BTB entry that a victim branch at victimIP (whose low 12 bits
// are known — ASLR is page-granular — but whose bits 12..MatchBits-1 are
// randomised) will consume. The attacker sprays one aliasing branch per
// candidate upper-bit pattern, executing each enough times to drive the
// direction counter to taken; branchCycles is the cost of one attacker
// branch execution.
func MistrainCost(cfg Config, branchCycles uint64) (candidates int, totalCycles uint64) {
	unknownBits := cfg.MatchBits - 12 // ASLR hides bits 12..MatchBits-1
	if unknownBits < 0 {
		unknownBits = 0
	}
	candidates = 1 << uint(unknownBits)
	// Two executions per candidate saturate the 2-bit counter past the
	// taken threshold and install the BTB entry.
	totalCycles = uint64(candidates) * 2 * branchCycles
	return candidates, totalCycles
}
