// Package rsa implements textbook RSA on math/big: key generation, raw
// encryption, and a timing-constant Montgomery-ladder decryption — the
// MbedTLS-style engine of Figures 3 and 4 that the paper's end-to-end attack
// extracts a private key from (§6.2). Decryption exposes a per-ladder-
// iteration hook so the simulated victim can issue the branch-dependent
// loads at exactly the algorithmic point AfterImage targets.
//
// Key generation draws every prime candidate and every Miller–Rabin base
// from the caller's *rand.Rand in a fixed order, so one seed names one key.
package rsa

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
)

// PublicKey is (N, e).
type PublicKey struct {
	N *big.Int
	E *big.Int
}

// PrivateKey carries the private exponent and the generating primes.
type PrivateKey struct {
	PublicKey
	D *big.Int
	P *big.Int
	Q *big.Int
}

// GenerateKey produces a key with an n-bit modulus from the deterministic
// source. e is fixed to 65537.
func GenerateKey(rng *rand.Rand, bits int) (*PrivateKey, error) {
	if bits < 32 || bits%2 != 0 {
		return nil, fmt.Errorf("rsa: modulus size %d unsupported", bits)
	}
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for {
		p := generatePrime(rng, bits/2)
		q := generatePrime(rng, bits/2)
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue
		}
		return &PrivateKey{PublicKey: PublicKey{N: n, E: e}, D: d, P: p, Q: q}, nil
	}
}

// Encrypt computes m^e mod N (raw, textbook RSA — the primitive the paper's
// victims expose).
func (pub *PublicKey) Encrypt(m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(pub.N) >= 0 {
		return nil, fmt.Errorf("rsa: message outside [0, N)")
	}
	return new(big.Int).Exp(m, pub.E, pub.N), nil
}

// LadderHook observes one Montgomery-ladder iteration. bitIndex counts down
// from the exponent's most significant bit; bit is the exponent bit
// processed. The RSA victims use it to issue the branch-dependent loads of
// Figures 3 and 4 at exactly the algorithmic point the paper attacks.
type LadderHook func(bitIndex int, bit uint)

// Decrypt computes c^d mod N with the timing-constant Montgomery ladder.
func (priv *PrivateKey) Decrypt(c *big.Int) *big.Int { return priv.DecryptWithHook(c, nil) }

// DecryptWithHook is Decrypt with a per-ladder-iteration observer (hook may
// be nil). Both branches of the ladder perform the same operation sequence,
// one multiply and one square, as in the MbedTLS engine the paper targets.
func (priv *PrivateKey) DecryptWithHook(c *big.Int, hook LadderHook) *big.Int {
	n := priv.N
	r0 := big.NewInt(1)
	r1 := new(big.Int).Mod(c, n)
	for i := priv.D.BitLen() - 1; i >= 0; i-- {
		bit := priv.D.Bit(i)
		if hook != nil {
			hook(i, bit)
		}
		if bit == 0 {
			// R1 = R0·R1, R0 = R0²
			r1.Mod(r1.Mul(r0, r1), n)
			r0.Mod(r0.Mul(r0, r0), n)
		} else {
			// R0 = R0·R1, R1 = R1²
			r0.Mod(r0.Mul(r0, r1), n)
			r1.Mod(r1.Mul(r1, r1), n)
		}
	}
	return r0
}

// smallPrimes are the trial divisors every prime candidate meets first.
var smallPrimes = []int64{
	2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
	71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
}

// generatePrime returns a random prime of exactly bitLen bits: candidates
// are randBits with the top and bottom bits set, tested by probablyPrime
// with 12 Miller–Rabin rounds.
func generatePrime(rng *rand.Rand, bitLen int) *big.Int {
	for {
		c := randBits(rng, bitLen)
		c.SetBit(c, bitLen-1, 1)
		c.SetBit(c, 0, 1)
		if probablyPrime(c, 12, rng) {
			return c
		}
	}
}

// probablyPrime runs trial division by smallPrimes and then `rounds`
// Miller–Rabin iterations with bases drawn from rng. n must be at least 2.
func probablyPrime(n *big.Int, rounds int, rng *rand.Rand) bool {
	r := new(big.Int)
	for _, p := range smallPrimes {
		bp := big.NewInt(p)
		if n.Cmp(bp) == 0 {
			return true
		}
		if r.Mod(n, bp).Sign() == 0 {
			return false
		}
	}
	one := big.NewInt(1)
	nMinus1 := new(big.Int).Sub(n, one)
	// n-1 = d·2^s with d odd.
	s := nMinus1.TrailingZeroBits()
	d := new(big.Int).Rsh(nMinus1, s)
	baseBound := new(big.Int).Sub(n, big.NewInt(3))
	two := big.NewInt(2)
witness:
	for i := 0; i < rounds; i++ {
		a := randBelow(rng, baseBound)
		a.Add(a, two) // a in [2, n-2]
		x := new(big.Int).Exp(a, d, n)
		if x.Cmp(one) == 0 || x.Cmp(nMinus1) == 0 {
			continue
		}
		for j := uint(1); j < s; j++ {
			x.Mod(x.Mul(x, x), n)
			if x.Cmp(nMinus1) == 0 {
				continue witness
			}
		}
		return false
	}
	return true
}

// randBits draws ceil(n/64) words from rng, least significant first, and
// keeps their low n bits.
func randBits(rng *rand.Rand, n int) *big.Int {
	x, w := new(big.Int), new(big.Int)
	for i := 0; i < (n+63)/64; i++ {
		x.Or(x, w.Lsh(w.SetUint64(rng.Uint64()), uint(64*i)))
	}
	return x.Mod(x, w.Lsh(big.NewInt(1), uint(n)))
}

// randBelow returns a uniform value in [0, bound) by rejection, drawing a
// fresh randBits(bound.BitLen()) per try. bound must be positive.
func randBelow(rng *rand.Rand, bound *big.Int) *big.Int {
	for {
		if x := randBits(rng, bound.BitLen()); x.Cmp(bound) < 0 {
			return x
		}
	}
}

var (
	testKeyMu    sync.Mutex
	testKeyCache = map[int]*PrivateKey{}
)

// TestKey returns a deterministic cached key of the given modulus size —
// shared by tests, benchmarks and examples to avoid repeated generation.
// Every caller gets the same *PrivateKey, so none may modify it.
func TestKey(bits int) *PrivateKey {
	testKeyMu.Lock()
	defer testKeyMu.Unlock()
	if k, ok := testKeyCache[bits]; ok {
		return k
	}
	k, err := GenerateKey(rand.New(rand.NewSource(int64(bits)*7919+1)), bits)
	if err != nil {
		panic(err)
	}
	testKeyCache[bits] = k
	return k
}
