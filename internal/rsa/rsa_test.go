package rsa

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	key := TestKey(256)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		m := randBelow(rng, key.N)
		c, err := key.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := key.Decrypt(c); got.Cmp(m) != 0 {
			t.Fatalf("roundtrip failed: %x -> %x", m, got)
		}
	}
}

// TestHookedDecryptMatchesPlain: the hand-written ladder computes c^D mod N
// exactly as big.Int.Exp does, with or without a hook, and the hook runs
// once per bit of D.
func TestHookedDecryptMatchesPlain(t *testing.T) {
	key := TestKey(256)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		c := randBelow(rng, key.N)
		want := new(big.Int).Exp(c, key.D, key.N)
		if got := key.Decrypt(c); got.Cmp(want) != 0 {
			t.Fatalf("ladder %x^D = %x, big.Int.Exp gives %x", c, got, want)
		}
		var steps int
		if got := key.DecryptWithHook(c, func(int, uint) { steps++ }); got.Cmp(want) != 0 {
			t.Fatal("hooked decrypt diverged")
		}
		if steps != key.D.BitLen() {
			t.Fatalf("hook saw %d iterations, want %d", steps, key.D.BitLen())
		}
	}
}

// TestHookObservesExactKeyBits: the hook sees D's bits from the top, each
// with its own index.
func TestHookObservesExactKeyBits(t *testing.T) {
	key := TestKey(128)
	c, _ := key.Encrypt(big.NewInt(7))
	next := key.D.BitLen() - 1
	key.DecryptWithHook(c, func(i int, b uint) {
		if i != next {
			t.Fatalf("hook saw bit index %d, want %d", i, next)
		}
		if b != key.D.Bit(i) {
			t.Fatalf("bit %d reported as %d, want %d", i, b, key.D.Bit(i))
		}
		next--
	})
	if next != -1 {
		t.Fatalf("hook stopped before bit 0 (next %d)", next)
	}
}

// TestModExpMatchesBig: the ladder computes base^exp mod m exactly as
// big.Int.Exp does for random bases, exponents and moduli, with and without
// a hook. The ladder reads only N and D, so a bare key carries each pair; a
// modulus below 2 never occurs in a key and is skipped.
func TestModExpMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for i := 0; i < 40; i++ {
		base := randBits(rng, rng.Intn(256)+1)
		exp := randBits(rng, rng.Intn(128)+1)
		m := randBits(rng, rng.Intn(256)+1)
		if m.BitLen() < 2 {
			continue
		}
		key := &PrivateKey{PublicKey: PublicKey{N: m}, D: exp}
		want := new(big.Int).Exp(base, exp, m)
		if got := key.Decrypt(base); got.Cmp(want) != 0 {
			t.Fatalf("ladder %x^%x mod %x = %x, big.Int.Exp gives %x", base, exp, m, got, want)
		}
		if got := key.DecryptWithHook(base, func(int, uint) {}); got.Cmp(want) != 0 {
			t.Fatalf("hooked ladder %x^%x mod %x = %x, big.Int.Exp gives %x", base, exp, m, got, want)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d of 40 draws had a modulus of at least 2", checked)
	}
}

// TestLadderHookSeesEveryBit: for the exponent 0xb5 = 10110101 the hook
// sees the bits 1,0,1,1,0,1,0,1 in that order, at indices 7 down to 0.
func TestLadderHookSeesEveryBit(t *testing.T) {
	key := &PrivateKey{PublicKey: PublicKey{N: big.NewInt(1000003)}, D: big.NewInt(0xb5)}
	var bits []uint
	var idx []int
	key.DecryptWithHook(big.NewInt(3), func(i int, b uint) {
		idx = append(idx, i)
		bits = append(bits, b)
	})
	if want := []uint{1, 0, 1, 1, 0, 1, 0, 1}; !slices.Equal(bits, want) {
		t.Fatalf("hook saw bits %v, want %v", bits, want)
	}
	if want := []int{7, 6, 5, 4, 3, 2, 1, 0}; !slices.Equal(idx, want) {
		t.Fatalf("hook saw indices %v, want %v", idx, want)
	}
}

func TestEncryptRejectsOversizedMessage(t *testing.T) {
	key := TestKey(128)
	for _, m := range []*big.Int{key.N, new(big.Int).Add(key.N, big.NewInt(1)), big.NewInt(-1)} {
		if _, err := key.Encrypt(m); err == nil {
			t.Fatalf("message %x accepted", m)
		}
	}
}

func TestGenerateKeyProperties(t *testing.T) {
	key, err := GenerateKey(rand.New(rand.NewSource(2)), 128)
	if err != nil {
		t.Fatal(err)
	}
	if key.N.BitLen() != 128 {
		t.Fatalf("modulus bits = %d", key.N.BitLen())
	}
	if new(big.Int).Mul(key.P, key.Q).Cmp(key.N) != 0 {
		t.Fatal("N != P*Q")
	}
	for _, f := range []*big.Int{key.P, key.Q} {
		if f.BitLen() != 64 || !f.ProbablyPrime(20) {
			t.Fatalf("factor %x is not a 64-bit prime", f)
		}
	}
	// e·d ≡ 1 (mod φ)
	one := big.NewInt(1)
	phi := new(big.Int).Mul(new(big.Int).Sub(key.P, one), new(big.Int).Sub(key.Q, one))
	if ed := new(big.Int).Mul(key.E, key.D); ed.Mod(ed, phi).Cmp(one) != 0 {
		t.Fatal("e·d mod phi != 1")
	}
}

// TestGeneratePrime: generatePrime returns a prime of exactly the asked
// length by math/big's own test, also for lengths that are not a multiple
// of 64.
func TestGeneratePrime(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, bits := range []int{16, 64, 100, 128} {
		if p := generatePrime(rng, bits); p.BitLen() != bits || !p.ProbablyPrime(20) {
			t.Fatalf("generatePrime(%d) = %x, not a %d-bit prime", bits, p, bits)
		}
	}
}

func TestGenerateKeyRejectsBadSizes(t *testing.T) {
	if _, err := GenerateKey(rand.New(rand.NewSource(1)), 31); err == nil {
		t.Fatal("odd/small size accepted")
	}
}

func TestTestKeyIsCachedAndDeterministic(t *testing.T) {
	a := TestKey(128)
	b := TestKey(128)
	if a != b {
		t.Fatal("TestKey not cached")
	}
	if a.D.Sign() == 0 {
		t.Fatal("degenerate test key")
	}
}

// TestKeysPinned pins TestKey's modulus and private exponent. Every report
// number and golden that comes from an RSA run depends on these draws from
// the seeded source, so a change to the candidate, trial-division or
// Miller–Rabin sequence shows here first.
func TestKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		bits int
		n, d string
	}{
		{32, "e57061fd", "4ad709c1"},
		{64, "816196e9869e8a45", "60ae59433203869d"},
		{96, "c0b17521507af03a9efd0161", "66d70efd4db6b01e9e59dd45"},
		{128, "d292d3e798b126a1c494e6b08856d1bd", "a6ebcb5cc8568d86b8449531d91f1ee1"},
		{256, "939e5466a48f274abdfe6b460c1987a35b965d8bd92266e38caea09ceef4ab6f",
			"a91875161eeadcd7814c2f15ce467057a4a26811ee6220483c22ae4a5d28401"},
	} {
		k := TestKey(tc.bits)
		if n, d := fmt.Sprintf("%x", k.N), fmt.Sprintf("%x", k.D); n != tc.n || d != tc.d {
			t.Errorf("TestKey(%d): N=%s D=%s, want N=%s D=%s", tc.bits, n, d, tc.n, tc.d)
		}
	}
}

// TestProbablyPrimeKnownValues classifies known primes and composites,
// among them the Carmichael number 561 and a strong pseudoprime to every
// base up to 17.
func TestProbablyPrimeKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, p := range []int64{2, 3, 5, 97, 101, 65537, 2147483647} {
		if !probablyPrime(big.NewInt(p), 16, rng) {
			t.Fatalf("%d misclassified composite", p)
		}
	}
	for _, c := range []int64{4, 100, 65535, 561, 341550071728321} {
		if probablyPrime(big.NewInt(c), 16, rng) {
			t.Fatalf("%d misclassified prime", c)
		}
	}
}

func TestRandBelowInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, bound := range []*big.Int{
		new(big.Int).Lsh(big.NewInt(1), 64), // one bit past a word
		big.NewInt(1),
		big.NewInt(1000),
		TestKey(256).N,
	} {
		for i := 0; i < 200; i++ {
			if x := randBelow(rng, bound); x.Sign() < 0 || x.Cmp(bound) >= 0 {
				t.Fatalf("randBelow(%x) = %x", bound, x)
			}
		}
	}
}
