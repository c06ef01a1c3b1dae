// Package bignum implements arbitrary-precision unsigned integers from
// scratch — the arithmetic substrate for the paper's RSA victims. It
// provides schoolbook multiplication, bit-serial division, modular
// arithmetic, a Montgomery-ladder modular exponentiation (the timing-
// balanced algorithm AfterImage attacks in §6.2), and Miller–Rabin
// primality testing for key generation. Tests cross-validate every
// operation against math/big.
package bignum

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// Nat is an arbitrary-precision unsigned integer. The zero value represents
// zero. Nats are immutable: operations return fresh values.
type Nat struct {
	// limbs are little-endian base-2^64 digits with no trailing zeros.
	limbs []uint64
}

// New returns a Nat holding the given value.
func New(x uint64) Nat {
	if x == 0 {
		return Nat{}
	}
	return Nat{limbs: []uint64{x}}
}

// trim removes high zero limbs.
func trim(l []uint64) []uint64 {
	for len(l) > 0 && l[len(l)-1] == 0 {
		l = l[:len(l)-1]
	}
	return l
}

// IsZero reports whether n is zero.
func (n Nat) IsZero() bool { return len(n.limbs) == 0 }

// Uint64 returns the low 64 bits of n.
func (n Nat) Uint64() uint64 {
	if n.IsZero() {
		return 0
	}
	return n.limbs[0]
}

// BitLen reports the length of n in bits.
func (n Nat) BitLen() int {
	if n.IsZero() {
		return 0
	}
	top := n.limbs[len(n.limbs)-1]
	return (len(n.limbs)-1)*64 + bits.Len64(top)
}

// Bit returns bit i of n (0 or 1).
func (n Nat) Bit(i int) uint {
	limb := i / 64
	if limb >= len(n.limbs) {
		return 0
	}
	return uint(n.limbs[limb] >> (i % 64) & 1)
}

// Cmp compares n and m: -1, 0 or +1.
func (n Nat) Cmp(m Nat) int {
	switch {
	case len(n.limbs) < len(m.limbs):
		return -1
	case len(n.limbs) > len(m.limbs):
		return 1
	}
	for i := len(n.limbs) - 1; i >= 0; i-- {
		switch {
		case n.limbs[i] < m.limbs[i]:
			return -1
		case n.limbs[i] > m.limbs[i]:
			return 1
		}
	}
	return 0
}

// Add returns n + m.
func (n Nat) Add(m Nat) Nat {
	a, b := n.limbs, m.limbs
	if len(a) < len(b) {
		a, b = b, a
	}
	out := make([]uint64, len(a)+1)
	var carry uint64
	for i := range a {
		var bi uint64
		if i < len(b) {
			bi = b[i]
		}
		s, c1 := bits.Add64(a[i], bi, carry)
		out[i] = s
		carry = c1
	}
	out[len(a)] = carry
	return Nat{limbs: trim(out)}
}

// Sub returns n - m; it panics when m > n (Nats are unsigned).
func (n Nat) Sub(m Nat) Nat {
	if n.Cmp(m) < 0 {
		panic("bignum: negative result in Sub")
	}
	out := make([]uint64, len(n.limbs))
	var borrow uint64
	for i := range n.limbs {
		var mi uint64
		if i < len(m.limbs) {
			mi = m.limbs[i]
		}
		d, b1 := bits.Sub64(n.limbs[i], mi, borrow)
		out[i] = d
		borrow = b1
	}
	if borrow != 0 {
		panic("bignum: borrow out of Sub")
	}
	return Nat{limbs: trim(out)}
}

// Mul returns n × m (schoolbook).
func (n Nat) Mul(m Nat) Nat {
	if n.IsZero() || m.IsZero() {
		return Nat{}
	}
	out := make([]uint64, len(n.limbs)+len(m.limbs))
	for i, a := range n.limbs {
		var carry uint64
		for j, b := range m.limbs {
			hi, lo := bits.Mul64(a, b)
			s, c1 := bits.Add64(out[i+j], lo, 0)
			s, c2 := bits.Add64(s, carry, 0)
			out[i+j] = s
			carry = hi + c1 + c2 // cannot overflow: hi ≤ 2^64-2
		}
		out[i+len(m.limbs)] += carry
	}
	return Nat{limbs: trim(out)}
}

// Shl returns n << k.
func (n Nat) Shl(k uint) Nat {
	if n.IsZero() || k == 0 {
		return Nat{limbs: append([]uint64(nil), n.limbs...)}
	}
	words, shift := k/64, k%64
	out := make([]uint64, len(n.limbs)+int(words)+1)
	for i, l := range n.limbs {
		out[i+int(words)] |= l << shift
		if shift != 0 {
			out[i+int(words)+1] |= l >> (64 - shift)
		}
	}
	return Nat{limbs: trim(out)}
}

// Shr returns n >> k.
func (n Nat) Shr(k uint) Nat {
	words, shift := int(k/64), k%64
	if words >= len(n.limbs) {
		return Nat{}
	}
	out := make([]uint64, len(n.limbs)-words)
	for i := range out {
		out[i] = n.limbs[i+words] >> shift
		if shift != 0 && i+words+1 < len(n.limbs) {
			out[i] |= n.limbs[i+words+1] << (64 - shift)
		}
	}
	return Nat{limbs: trim(out)}
}

// DivMod returns (n/d, n%d); it panics on division by zero.
func (n Nat) DivMod(d Nat) (q, r Nat) {
	if d.IsZero() {
		panic("bignum: division by zero")
	}
	if n.Cmp(d) < 0 {
		return Nat{}, n
	}
	if len(d.limbs) == 1 {
		return n.divModWord(d.limbs[0])
	}
	// Bit-serial long division from the most significant bit.
	bitsN := n.BitLen()
	qLimbs := make([]uint64, (bitsN+63)/64)
	r = Nat{}
	for i := bitsN - 1; i >= 0; i-- {
		r = r.Shl(1)
		if n.Bit(i) == 1 {
			r = r.Add(New(1))
		}
		if r.Cmp(d) >= 0 {
			r = r.Sub(d)
			qLimbs[i/64] |= 1 << (i % 64)
		}
	}
	return Nat{limbs: trim(qLimbs)}, r
}

// divModWord divides by a single limb using hardware 128/64 division.
func (n Nat) divModWord(d uint64) (Nat, Nat) {
	out := make([]uint64, len(n.limbs))
	var rem uint64
	for i := len(n.limbs) - 1; i >= 0; i-- {
		out[i], rem = bits.Div64(rem, n.limbs[i], d)
	}
	return Nat{limbs: trim(out)}, New(rem)
}

// Mod returns n mod d.
func (n Nat) Mod(d Nat) Nat {
	_, r := n.DivMod(d)
	return r
}

// ModMul returns (n × m) mod d.
func (n Nat) ModMul(m, d Nat) Nat { return n.Mul(m).Mod(d) }

// Bytes returns the big-endian byte representation (empty for zero).
func (n Nat) Bytes() []byte {
	if n.IsZero() {
		return nil
	}
	out := make([]byte, len(n.limbs)*8)
	for i, l := range n.limbs {
		for b := 0; b < 8; b++ {
			out[len(out)-1-(i*8+b)] = byte(l >> (8 * b))
		}
	}
	for len(out) > 0 && out[0] == 0 {
		out = out[1:]
	}
	return out
}

// FromBytes parses a big-endian byte string.
func FromBytes(b []byte) Nat {
	limbs := make([]uint64, (len(b)+7)/8)
	for i := 0; i < len(b); i++ {
		byteIdx := len(b) - 1 - i
		limbs[i/8] |= uint64(b[byteIdx]) << (8 * (i % 8))
	}
	return Nat{limbs: trim(limbs)}
}

// FromHex parses a hexadecimal string (without 0x prefix).
func FromHex(s string) (Nat, error) {
	s = strings.TrimPrefix(strings.ToLower(s), "0x")
	if s == "" {
		return Nat{}, fmt.Errorf("bignum: empty hex string")
	}
	n := Nat{}
	sixteen := New(16)
	for _, c := range s {
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		default:
			return Nat{}, fmt.Errorf("bignum: bad hex digit %q", c)
		}
		n = n.Mul(sixteen).Add(New(v))
	}
	return n, nil
}

// MustHex is FromHex that panics (for constants in tests and examples).
func MustHex(s string) Nat {
	n, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String renders n in lowercase hex.
func (n Nat) String() string {
	if n.IsZero() {
		return "0"
	}
	var sb strings.Builder
	for i := len(n.limbs) - 1; i >= 0; i-- {
		if i == len(n.limbs)-1 {
			fmt.Fprintf(&sb, "%x", n.limbs[i])
		} else {
			fmt.Fprintf(&sb, "%016x", n.limbs[i])
		}
	}
	return sb.String()
}

// RandBits returns a uniformly random Nat with exactly the given bit length
// (top bit set), using the provided deterministic source.
func RandBits(rng *rand.Rand, bitLen int) Nat {
	if bitLen <= 0 {
		return Nat{}
	}
	limbs := make([]uint64, (bitLen+63)/64)
	for i := range limbs {
		limbs[i] = rng.Uint64()
	}
	top := (bitLen-1)%64 + 1
	limbs[len(limbs)-1] &= ^uint64(0) >> (64 - uint(top))
	limbs[len(limbs)-1] |= 1 << uint(top-1)
	return Nat{limbs: trim(limbs)}
}

// RandBelow returns a uniformly random Nat in [0, bound) by rejection.
func RandBelow(rng *rand.Rand, bound Nat) Nat {
	if bound.IsZero() {
		panic("bignum: RandBelow of zero")
	}
	bl := bound.BitLen()
	for {
		limbs := make([]uint64, (bl+63)/64)
		for i := range limbs {
			limbs[i] = rng.Uint64()
		}
		excess := len(limbs)*64 - bl
		limbs[len(limbs)-1] &= ^uint64(0) >> uint(excess)
		n := Nat{limbs: trim(limbs)}
		if n.Cmp(bound) < 0 {
			return n
		}
	}
}
