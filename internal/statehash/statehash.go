// Package statehash provides the canonical state-hash encoder used by every
// simulator component's StateHash method. A component folds its state into a
// Hash field by field; because the encoding is length-prefixed and
// type-tagged, two different state layouts cannot collide by concatenation
// (e.g. []uint64{1,2} vs []uint64{1},[]uint64{2}), and the resulting 64-bit
// digest is stable across processes and platforms — the property the replay
// harness relies on when diffing checkpointed hashes against re-executed
// ones.
//
// The fold is FNV-1a at WORD granularity: one xor-multiply per uint64 field
// (bool slices are bit-packed into words first) instead of the classical
// per-octet fold. State hashing sits on the per-point campaign path — a
// sweep digests the multi-megabyte LLC arrays once per point — and the
// octet fold's serial multiply chain made that the single most expensive
// step of a sweep point. Word folding is 8× fewer multiplies for identical
// structure. Each fold step (h ^ v) * prime is bijective in either operand,
// so the word variant loses none of the mixing structure equality gating
// relies on. Changing the fold redefines every digest, so pinned goldens
// (TestStateHashGolden, testdata/hotpath_golden.json) were regenerated when
// it landed and recorded replay checkpoints from before it do not resume.
//
// Bool slices (a cache's valid and prefetched bits) are packed eight at a
// time: one little-endian 64-bit load reads eight bools as eight 0/1 bytes,
// and one multiply gathers those bytes into eight adjacent bits, so packing
// costs a load and a multiply per eight bools instead of a branch per bool.
// The packed words are the ones a bool-at-a-time loop builds (bool n at bit
// n%64), so digests do not depend on how the bits were gathered, nor on the
// host's byte order.
//
// A run of zeros folds in constant time. A zero word's step (h ^ 0) * prime
// is a bare multiply, so ZeroU64s and ZeroBools fold n zero words, or n
// false bools, as one multiply by a power of the prime: a cache set known to
// hold its constructor state folds to the same digest without being read.
package statehash

import (
	"encoding/binary"
	"unsafe"
)

// FNV-1a 64-bit parameters.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash is an incremental FNV-1a 64 digest over typed, length-prefixed
// fields. The zero value is NOT ready to use; call New.
type Hash struct {
	h uint64
}

// New returns a Hash seeded with the FNV-1a offset basis.
func New() *Hash { return &Hash{h: offset64} }

// byte folds one byte.
func (h *Hash) byte(b byte) {
	h.h ^= uint64(b)
	h.h *= prime64
}

// word folds one uint64 in a single xor-multiply step.
func (h *Hash) word(v uint64) {
	h.h = (h.h ^ v) * prime64
}

// Field type tags keep differently-typed encodings disjoint.
const (
	tagU64 byte = iota + 1
	tagI64
	tagBool
	tagStr
	tagSlice
)

// U64 folds one unsigned word.
func (h *Hash) U64(v uint64) *Hash {
	h.byte(tagU64)
	h.word(v)
	return h
}

// I64 folds one signed word.
func (h *Hash) I64(v int64) *Hash {
	h.byte(tagI64)
	h.word(uint64(v))
	return h
}

// Int folds an int.
func (h *Hash) Int(v int) *Hash { return h.I64(int64(v)) }

// Bool folds a bool.
func (h *Hash) Bool(v bool) *Hash {
	h.byte(tagBool)
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
	return h
}

// U64s folds a slice of words with a length prefix. The loop runs on a
// local accumulator so the multiply chain stays in registers — this is the
// hot path under the cache arrays.
func (h *Hash) U64s(vs []uint64) *Hash {
	h.byte(tagSlice)
	acc := (h.h ^ uint64(len(vs))) * prime64
	for _, v := range vs {
		acc = (acc ^ v) * prime64
	}
	h.h = acc
	return h
}

// ZeroU64s folds exactly what U64s folds for n zero words, in constant
// time: a zero word's step (h ^ 0) * prime is a bare multiply, so the
// length prefix's multiply and the n zero steps are one multiply by
// prime^(n+1).
func (h *Hash) ZeroU64s(n int) *Hash {
	h.byte(tagSlice)
	h.h = (h.h ^ uint64(n)) * primePow(n+1)
	return h
}

// ZeroBools folds exactly what Bools folds for n false bools: the length
// prefix, then ceil(n/64) zero words.
func (h *Hash) ZeroBools(n int) *Hash {
	h.byte(tagSlice)
	h.h = (h.h ^ uint64(n)) * primePow((n+63)/64+1)
	return h
}

// primePows tables prime64^k for the small k a cache set's zero folds use.
var primePows = func() (t [256]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * prime64
	}
	return t
}()

// primePow returns prime64^k (mod 2^64), from the table in chunks.
func primePow(k int) uint64 {
	p := uint64(1)
	for ; k >= len(primePows); k -= len(primePows) - 1 {
		p *= primePows[len(primePows)-1]
	}
	return p * primePows[k]
}

// Bools folds a slice of bools with a length prefix, bit-packed 64 per
// word with bool n at bit n%64 (the length prefix makes the packing
// injective).
func (h *Hash) Bools(vs []bool) *Hash {
	h.byte(tagSlice)
	acc := (h.h ^ uint64(len(vs))) * prime64
	for b := boolBytes(vs); len(b) > 0; {
		n := min(len(b), 64)
		var packed uint64
		i := 0
		for ; i+8 <= n; i += 8 {
			packed |= gather8(binary.LittleEndian.Uint64(b[i:])) << i
		}
		for ; i < n; i++ {
			packed |= uint64(b[i]) << i
		}
		acc = (acc ^ packed) * prime64
		b = b[n:]
	}
	h.h = acc
	return h
}

// gather8 packs eight 0/1 bytes, byte k of x being bool k, into the low
// eight bits, bool k at bit k. The multiply adds a copy of x shifted by
// 56-7k for each k, which moves byte k's bit (bit 8k) to bit 56+k; no two
// shifted bits share a position, so nothing carries into the top byte.
func gather8(x uint64) uint64 { return (x * 0x0102040810204080) >> 56 }

// boolBytes views vs as bytes without copying. It assumes a Go bool is one
// byte holding 0 (false) or 1 (true), which is how the gc toolchain stores
// it; TestBoolsMatchesReference fails on a toolchain where it is not.
func boolBytes(vs []bool) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs))
}

// Str folds a string with a length prefix.
func (h *Hash) Str(s string) *Hash {
	h.byte(tagStr)
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	return h
}

// Sum returns the current digest. The hash remains usable afterwards.
func (h *Hash) Sum() uint64 { return h.h }

// Combine folds an already-computed component digest into a parent hash —
// how Machine.StateHash merges its per-component hashes in a fixed order.
func (h *Hash) Combine(sub uint64) *Hash { return h.U64(sub) }
