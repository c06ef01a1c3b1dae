package sim

import "afterimage/internal/statehash"

// asidNormalize maps the machine's raw ASIDs (allocated from a process-
// global counter, so not reproducible across processes) onto stable values:
// the kernel space becomes 1 and user processes 2, 3, ... in creation order.
// Unknown ASIDs (a corrupted TLB entry) pass through raw.
func (m *Machine) asidNormalize() func(uint64) uint64 {
	table := map[uint64]uint64{m.Kernel.AS.ID: 1}
	for i, p := range m.procs {
		table[p.AS.ID] = uint64(i + 2)
	}
	return func(asid uint64) uint64 {
		if n, ok := table[asid]; ok {
			return n
		}
		return asid
	}
}

// Component-hash keys, in the fixed order StateHash combines them.
var componentOrder = []string{"cache.l1", "cache.l2", "cache.llc", "tlb", "prefetcher", "machine"}

// ComponentHashes returns the stable per-component state digests. The
// "machine" component covers the clock, scheduler counters, RNG positions
// and the address-space layouts of the kernel plus every process.
func (m *Machine) ComponentHashes() map[string]uint64 {
	return map[string]uint64{
		"cache.l1":   m.Mem.L1.StateHash(),
		"cache.l2":   m.Mem.L2.StateHash(),
		"cache.llc":  m.Mem.LLC.StateHash(),
		"tlb":        m.TLB.StateHash(m.asidNormalize()),
		"prefetcher": m.Pref.StateHash(),
		"machine":    m.machineHash(),
	}
}

// machineHash digests the machine-level scalar state.
func (m *Machine) machineHash() uint64 {
	h := statehash.New()
	h.U64(m.clock).U64(m.domainSwitches).U64(m.syscallCount).Int(m.smtOps)
	h.U64(m.jitterSrc.Draws()).U64(m.noiseSrc.Draws())
	spaces := append([]*Process{m.Kernel}, m.procs...)
	h.Int(len(spaces))
	for _, p := range spaces {
		h.Str(p.Name)
		maps := p.AS.Mappings()
		h.Int(len(maps))
		for _, mp := range maps {
			h.U64(uint64(mp.Base)).U64(mp.Length).Int(int(mp.Kind)).U64s(mp.Frames())
		}
	}
	return h.Sum()
}

// StateHash folds every component digest, in fixed order, into one 64-bit
// machine-state hash — the value the replay harness compares point by point.
func (m *Machine) StateHash() uint64 {
	hashes := m.ComponentHashes()
	h := statehash.New()
	for _, name := range componentOrder {
		h.Str(name).Combine(hashes[name])
	}
	return h.Sum()
}
