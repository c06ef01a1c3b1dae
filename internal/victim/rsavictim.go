package victim

import (
	"math/big"

	"afterimage/internal/mem"
	"afterimage/internal/rsa"
	"afterimage/internal/sim"
)

// RSALadder is the §6.2 victim: a timing-constant Montgomery-ladder RSA
// decryption (Figure 3/4 pattern). Both branch directions perform the same
// multiply-add sequence, but each direction prepares its operands with
// loads at direction-specific IPs — the leak AfterImage-PSC exploits.
type RSALadder struct {
	Key *rsa.PrivateKey
	// IPIf / IPElse are the operand-preparation load IPs of the taken
	// (bit=1) and not-taken (bit=0) directions.
	IPIf, IPElse uint64
	// IPMulLoop is the multiply-add inner loop's limb-load IP: it executes
	// identically on both directions (the timing-constant property) and
	// models the real engine's streaming limb traffic.
	IPMulLoop uint64
	// Workspace is the victim's own operand memory.
	Workspace *mem.Mapping
	// IterationCycles models the multiply-add arithmetic cost per ladder
	// step on the simulated core (a few thousand cycles for 1024-bit
	// limbs at -O0, per the paper's ~10 s per 5-iteration observation).
	IterationCycles uint64
	// LimbLoads is how many limb-array loads each multiply-add issues
	// (direction-independent).
	LimbLoads int
	// YieldPerBit inserts the victim-side sched_yield after each branch
	// (§6.2's simplified synchronisation).
	YieldPerBit bool
}

// NewRSALadder allocates the victim workspace.
func NewRSALadder(env *sim.Env, key *rsa.PrivateKey) *RSALadder {
	return &RSALadder{
		Key:             key,
		IPIf:            0x0870_5119, // low 8 bits 0x19
		IPElse:          0x0870_51d3, // low 8 bits 0xD3
		IPMulLoop:       0x0870_5240, // low 8 bits 0x40
		Workspace:       env.Mmap(4*mem.PageSize, mem.MapLocked),
		IterationCycles: 6000,
		LimbLoads:       16, // 1024-bit operands in 64-bit limbs
		YieldPerBit:     true,
	}
}

// Decrypt performs the full private-key operation, issuing the per-bit
// branch-dependent loads and yields. It returns the plaintext.
func (v *RSALadder) Decrypt(env *sim.Env, c *big.Int) *big.Int {
	iteration := 0
	return v.Key.DecryptWithHook(c, func(bitIndex int, bit uint) {
		v.LadderStep(env, iteration, bit)
		iteration++
	})
}

// LadderStep issues one iteration's microarchitectural activity without the
// big-number arithmetic — used by tests and by the covert-timing experiments
// that only need the load behaviour.
func (v *RSALadder) LadderStep(env *sim.Env, iteration int, bit uint) {
	// Operand pointers live on a handful of workspace lines; the accessed
	// line varies slowly with the iteration, like real limb buffers.
	line := (iteration * 3) % (LinesPerMapping(v.Workspace) - 1)
	addr := v.Workspace.Base + mem.VAddr(line*mem.LineSize)
	env.WarmTLB(addr)
	if bit == 1 {
		env.Load(v.IPIf, addr) // X->s = s path
	} else {
		env.Load(v.IPElse, addr) // X->s = -s path
	}
	// The multiply-add itself: identical limb traffic on both directions
	// (this is exactly why the engine defeats timing attacks but not
	// AfterImage — the direction-specific IPs above already leaked).
	limbBase := v.Workspace.Base + mem.VAddr(2*mem.PageSize)
	env.WarmTLB(limbBase)
	for l := 0; l < v.LimbLoads; l++ {
		env.Load(v.IPMulLoop, limbBase+mem.VAddr((l%(mem.PageSize/mem.LineSize))*mem.LineSize))
	}
	env.Sleep(v.IterationCycles) // balanced multiply_add arithmetic
	if v.YieldPerBit {
		env.Yield()
	}
}

// LinesPerMapping reports how many cache lines a mapping spans.
func LinesPerMapping(m *mem.Mapping) int { return int(m.Length / mem.LineSize) }

// OpenSSLRSA is the §6.3 victim: a commercial-grade-style decryption with
// two tracked phases — private-key loading, then the multiplication-addition
// loop — whose onset times Figure 15 recovers via AfterImage-PSC.
type OpenSSLRSA struct {
	// IPKeyLoad is the IP of the key-limb loads; IPMulAdd of the loop loads.
	IPKeyLoad, IPMulAdd uint64
	// KeyBuf holds the private key limbs.
	KeyBuf *mem.Mapping
	// IdleBeforeKeyLoad / IdleBeforeDecrypt are quiet slots (in yields)
	// before each phase, so the timeline has distinguishable onsets.
	IdleBeforeKeyLoad, IdleBeforeDecrypt int
	// KeyLines is how many limb lines the key-load phase touches.
	KeyLines int
	// MulAddIters is the decryption loop length.
	MulAddIters int
}

// NewOpenSSLRSA builds the victim with Figure 15-ish phase shapes.
func NewOpenSSLRSA(env *sim.Env) *OpenSSLRSA {
	return &OpenSSLRSA{
		IPKeyLoad:         0x0822_4e2b, // low 8 bits 0x2B
		IPMulAdd:          0x0822_4f66, // low 8 bits 0x66
		KeyBuf:            env.Mmap(mem.PageSize, mem.MapLocked),
		IdleBeforeKeyLoad: 6,
		IdleBeforeDecrypt: 6,
		KeyLines:          4,
		MulAddIters:       10,
	}
}

// Run executes idle / key-load / idle / decrypt, yielding once per step so
// the attacker samples the prefetcher status at a fine granularity (§6.3
// "calling sched_yield() more frequently").
func (v *OpenSSLRSA) Run(env *sim.Env) {
	env.WarmTLB(v.KeyBuf.Base)
	for i := 0; i < v.IdleBeforeKeyLoad; i++ {
		env.Sleep(800)
		env.Yield()
	}
	for i := 0; i < v.KeyLines; i++ {
		env.Load(v.IPKeyLoad, v.KeyBuf.Base+mem.VAddr(i*mem.LineSize))
		env.Sleep(400)
		env.Yield()
	}
	for i := 0; i < v.IdleBeforeDecrypt; i++ {
		env.Sleep(800)
		env.Yield()
	}
	for i := 0; i < v.MulAddIters; i++ {
		line := 8 + i%8
		env.Load(v.IPMulAdd, v.KeyBuf.Base+mem.VAddr(line*mem.LineSize))
		env.Sleep(600)
		env.Yield()
	}
}
