package afterimage

import (
	"math/big"

	"afterimage/internal/core"
	"afterimage/internal/rsa"
	"afterimage/internal/sim"
	"afterimage/internal/victim"
)

// RSAOptions configures the §6.2 end-to-end key extraction against the
// timing-constant Montgomery-ladder engine.
type RSAOptions struct {
	// KeyBits is the RSA modulus size (the paper uses 1024; tests use less).
	KeyBits int
	// ItersPerBit is the number of observations majority-voted per key bit
	// (the paper needs at most 5 because AfterImage-PSC is 82 % accurate).
	ItersPerBit int
	// Pipelined observes every key bit within a single decryption instead
	// of one targeted bit per decryption. The paper's flow is per-bit
	// (false); the pipelined mode is this library's extension showing the
	// attack cost collapses from hours to seconds when the attacker can
	// keep pace with the ladder.
	Pipelined bool
	// VictimIterationCycles models the victim's per-ladder-step arithmetic
	// cost. The default (0) picks the -O0 MbedTLS-like profile that makes
	// one 1024-bit decryption take ~2.2 simulated seconds, matching the
	// paper's ~10 s per 5-iteration bit leak.
	VictimIterationCycles uint64
}

// RSAResult reports the key extraction.
type RSAResult struct {
	KeyBits int
	// TrueExponent is a copy of the victim key's private exponent; the key
	// itself is shared by every lab and stays untouched.
	TrueExponent *big.Int
	// Recovered is the exponent read from the majority votes, MSB first.
	Recovered     *big.Int
	BitsCorrect   int
	BitsTotal     int
	ObservationOK int // individual PSC observations that matched the bit
	Observations  int
	Cycles        uint64
	Decryptions   int
}

// BitSuccessRate is the fraction of key bits recovered correctly after
// majority voting.
func (r RSAResult) BitSuccessRate() float64 {
	if r.BitsTotal == 0 {
		return 0
	}
	return float64(r.BitsCorrect) / float64(r.BitsTotal)
}

// PSCSuccessRate is the per-observation accuracy (the paper's 82 %).
func (r RSAResult) PSCSuccessRate() float64 {
	if r.Observations == 0 {
		return 0
	}
	return float64(r.ObservationOK) / float64(r.Observations)
}

// ExtractRSAKey runs the §6.2 attack: the attacker thread repeatedly trains
// the entry aliasing the if-path load of the ladder, yields to the victim's
// decryption, and reads each private-exponent bit from the prefetcher
// status (Figure 14c; §7.3).
func (l *Lab) ExtractRSAKey(opts RSAOptions) RSAResult {
	if opts.KeyBits == 0 {
		opts.KeyBits = 128
	}
	if opts.ItersPerBit <= 0 {
		opts.ItersPerBit = 5
	}
	m := l.m
	key := rsa.TestKey(opts.KeyBits)
	attProc := m.NewProcess("attacker")
	vicProc := m.NewProcess("victim")
	vicEnv := m.Direct(vicProc)
	vic := victim.NewRSALadder(vicEnv, key)
	if opts.VictimIterationCycles != 0 {
		vic.IterationCycles = opts.VictimIterationCycles
	} else {
		// -O0 big-number profile: one full decryption of a KeyBits ladder
		// lasts ~2.2 s of simulated time (§7.3's observed victim runtime).
		vic.IterationCycles = uint64(2.2 * l.m.Cfg.GHz * 1e9 / float64(opts.KeyBits))
	}

	exp := key.D
	bits := exp.BitLen()
	res := RSAResult{KeyBits: opts.KeyBits, TrueExponent: new(big.Int).Set(exp), BitsTotal: bits}
	ciphertext, err := key.Encrypt(big.NewInt(0xC0FFEE))
	if err != nil {
		panic(err)
	}

	votes := make([]int, bits) // votes[i] > 0 ⇒ bit (msb-first index i) is 1
	start := m.Now()

	if opts.Pipelined {
		res.Decryptions = opts.ItersPerBit
		for run := 0; run < opts.ItersPerBit; run++ {
			l.rsaObserveRun(attProc, vicProc, vic, ciphertext, bits, -1, votes, &res)
		}
	} else {
		// Faithful per-bit flow: one decryption run observes one bit.
		for bit := 0; bit < bits; bit++ {
			for it := 0; it < opts.ItersPerBit; it++ {
				res.Decryptions++
				l.rsaObserveRun(attProc, vicProc, vic, ciphertext, bits, bit, votes, &res)
			}
		}
	}
	res.Cycles = m.Now() - start

	// Majority vote per bit, MSB first.
	res.Recovered = new(big.Int)
	for i := 0; i < bits; i++ {
		if votes[i] > 0 {
			res.Recovered.SetBit(res.Recovered, bits-1-i, 1)
		}
		if res.Recovered.Bit(bits-1-i) == exp.Bit(bits-1-i) {
			res.BitsCorrect++
		}
	}
	return res
}

// rsaObserveRun performs one victim decryption; the attacker watches bit
// `target` (all bits when target < 0) and accumulates ±1 votes.
func (l *Lab) rsaObserveRun(attProc, vicProc *sim.Process, vic *victim.RSALadder,
	ciphertext *big.Int, bits, target int, votes []int, res *RSAResult) {
	m := l.m
	exp := vic.Key.D
	m.Spawn(attProc, "attacker", func(e *sim.Env) {
		psc := core.NewPSC(e, core.IPWithLow8(0x40_0000, uint8(vic.IPIf)), 11, 64)
		psc.Train(e, 4)
		for iter := 0; iter < bits; iter++ {
			watch := target < 0 || iter == target
			if watch {
				e.BeginPhase("train")
				psc.Train(e, 3)
				e.BeginPhase("trigger")
			}
			e.Yield() // victim executes ladder iteration `iter`
			if !watch {
				continue
			}
			e.BeginPhase("probe")
			executed := !psc.Check(e)
			e.BeginPhase("decode")
			res.Observations++
			truth := exp.Bit(bits-1-iter) == 1
			if executed == truth {
				res.ObservationOK++
			}
			if executed {
				votes[iter]++
			} else {
				votes[iter]--
			}
			e.EndPhase()
		}
	})
	m.Spawn(vicProc, "victim", func(e *sim.Env) {
		vic.Decrypt(e, ciphertext)
	})
	m.Run()
}

// TimingSample is one PSC observation on the Figure 15 timeline.
type TimingSample struct {
	Cycle     uint64
	Triggered bool // prefetcher still fires (no victim load in this slot)
}

// TimingResult is the §6.3 load-tracking outcome for one monitored IP.
type TimingResult struct {
	TargetName string
	Samples    []TimingSample
	// OnsetIndex is the first sample whose status dropped — the recovered
	// operation time.
	OnsetIndex int
}

// TrackOpenSSL reproduces §6.3 / Figure 15: the attacker mistrains once and
// then samples the prefetcher status at every scheduling slot while the
// OpenSSL-like victim loads its key and decrypts; the two status drops
// reveal when each phase ran.
func (l *Lab) TrackOpenSSL() (keyLoad, decrypt TimingResult) {
	m := l.m
	attProc := m.NewProcess("attacker")
	vicProc := m.NewProcess("victim")
	vicEnv := m.Direct(vicProc)
	vic := victim.NewOpenSSLRSA(vicEnv)

	keyLoad = TimingResult{TargetName: "key-load", OnsetIndex: -1}
	decrypt = TimingResult{TargetName: "mul-add", OnsetIndex: -1}
	totalSlots := vic.IdleBeforeKeyLoad + vic.KeyLines + vic.IdleBeforeDecrypt + vic.MulAddIters + 2

	m.Spawn(attProc, "attacker", func(e *sim.Env) {
		pscKey := core.NewPSC(e, core.IPWithLow8(0x40_0000, uint8(vic.IPKeyLoad)), 11, 128)
		pscMul := core.NewPSC(e, core.IPWithLow8(0x41_0000, uint8(vic.IPMulAdd)), 9, 128)
		pscKey.Train(e, 4)
		pscMul.Train(e, 4)
		for s := 0; s < totalSlots; s++ {
			e.BeginPhase("trigger")
			e.Yield()
			e.BeginPhase("probe")
			kc := pscKey.Check(e)
			mc := pscMul.Check(e)
			keyLoad.Samples = append(keyLoad.Samples, TimingSample{Cycle: e.Now(), Triggered: kc})
			decrypt.Samples = append(decrypt.Samples, TimingSample{Cycle: e.Now(), Triggered: mc})
			e.EndPhase()
		}
	})
	m.Spawn(vicProc, "victim", func(e *sim.Env) {
		vic.Run(e)
		// Keep yielding so the attacker can finish its sampling window.
		for i := 0; i < totalSlots; i++ {
			e.Yield()
		}
	})
	m.Run()

	keyLoad.OnsetIndex = onsetOf(keyLoad.Samples)
	decrypt.OnsetIndex = onsetOf(decrypt.Samples)
	return keyLoad, decrypt
}

// TrackAES applies the same §6.3 flow to an OpenSSL-style AES-128
// encryption: the attacker samples the prefetcher entry aliasing the S-box
// lookup IP and recovers when the key schedule ran and when the block
// encryption ran — the timing input of the Figure 16 power attack. It
// returns the PSC timeline, the slot indices of the two detected events,
// and the ciphertext (so tests can confirm the victim computed real AES).
func (l *Lab) TrackAES() (timeline TimingResult, expandSlot, encryptSlot int, ciphertext [16]byte) {
	m := l.m
	attProc := m.NewProcess("attacker")
	vicProc := m.NewProcess("victim")
	vicEnv := m.Direct(vicProc)
	vic := victim.NewAESEncryptor(vicEnv)
	plaintext := []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
		0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}

	timeline = TimingResult{TargetName: "aes-sbox", OnsetIndex: -1}
	totalSlots := vic.Slots() + 2

	m.Spawn(attProc, "attacker", func(e *sim.Env) {
		psc := core.NewPSC(e, core.IPWithLow8(0x42_0000, uint8(vic.IPSBox)), 11, 128)
		psc.Train(e, 4)
		for s := 0; s < totalSlots; s++ {
			e.BeginPhase("trigger")
			e.Yield()
			e.BeginPhase("probe")
			ok := psc.Check(e)
			timeline.Samples = append(timeline.Samples, TimingSample{Cycle: e.Now(), Triggered: ok})
			e.EndPhase()
		}
	})
	m.Spawn(vicProc, "victim", func(e *sim.Env) {
		ct, err := vic.Run(e, plaintext)
		if err == nil {
			ciphertext = ct
		}
		for i := 0; i < totalSlots; i++ {
			e.Yield()
		}
	})
	m.Run()

	// The two S-box bursts are single-slot events (unlike the RSA phases),
	// so event extraction looks for isolated drops: each burst of 40/176
	// lookups lands in one slot and re-trains over the next two.
	expandSlot, encryptSlot = -1, -1
	for i, s := range timeline.Samples {
		if s.Triggered {
			continue
		}
		// Skip the re-training misses that follow a detected event.
		if expandSlot >= 0 && i <= expandSlot+2 {
			continue
		}
		if expandSlot < 0 {
			expandSlot = i
			timeline.OnsetIndex = i
		} else if encryptSlot < 0 && i > expandSlot+2 {
			encryptSlot = i
		}
	}
	return timeline, expandSlot, encryptSlot, ciphertext
}

// onsetOf locates the first run of ≥3 consecutive status drops. Shorter
// drops are noise: a context switch that evicts the trained entry costs
// exactly two misses before the chain re-trains itself (the Figure 15
// two-miss signature), whereas a real victim phase keeps re-disturbing the
// entry for its whole duration.
func onsetOf(samples []TimingSample) int {
	run := 0
	for i, s := range samples {
		if s.Triggered {
			run = 0
			continue
		}
		run++
		if run == 3 {
			return i - 2
		}
	}
	return -1
}
