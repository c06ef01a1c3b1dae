package statehash

import (
	"math/rand"
	"testing"
)

// refBools is the one-bool-at-a-time fold Bools must reproduce: a length
// prefix, then the bools bit-packed 64 per word, bool n at bit n%64.
func refBools(h *Hash, vs []bool) *Hash {
	h.byte(tagSlice)
	acc := (h.h ^ uint64(len(vs))) * prime64
	var packed uint64
	n := 0
	for _, v := range vs {
		if v {
			packed |= 1 << uint(n)
		}
		if n++; n == 64 {
			acc = (acc ^ packed) * prime64
			packed, n = 0, 0
		}
	}
	if n > 0 {
		acc = (acc ^ packed) * prime64
	}
	h.h = acc
	return h
}

// refPrefixes are the differently seeded hash states the fold tests start
// from.
var refPrefixes = map[string]func() *Hash{
	"none": New,
	"u64":  func() *Hash { return New().U64(0x9e3779b97f4a7c15) },
	"str":  func() *Hash { return New().Str("cache.llc") },
}

// TestZeroFoldsMatchSlices: ZeroU64s and ZeroBools yield the digests U64s
// and Bools give zero slices of the same length, for every length 0..200
// and for lengths that need the power table more than once, after each
// prefix.
func TestZeroFoldsMatchSlices(t *testing.T) {
	lengths := []int{255, 256, 257, 510, 511, 512, 4096, 16383}
	for n := 0; n <= 200; n++ {
		lengths = append(lengths, n)
	}
	for prefix, start := range refPrefixes {
		for _, n := range lengths {
			if got, want := start().ZeroU64s(n).Sum(), start().U64s(make([]uint64, n)).Sum(); got != want {
				t.Fatalf("ZeroU64s(%d) after %s prefix: digest %#x, U64s %#x", n, prefix, got, want)
			}
			if got, want := start().ZeroBools(n).Sum(), start().Bools(make([]bool, n)).Sum(); got != want {
				t.Fatalf("ZeroBools(%d) after %s prefix: digest %#x, Bools %#x", n, prefix, got, want)
			}
		}
	}
}

// TestBoolsMatchesReference: the packed fold yields the reference digest
// for every length 0..200 (so every tail length and word boundary), for
// all-false, all-true, alternating and random patterns, at every byte
// offset into a backing array, after differently seeded prefixes.
func TestBoolsMatchesReference(t *testing.T) {
	const maxLen, maxOff = 200, 7
	rng := rand.New(rand.NewSource(1))
	random := make([]bool, maxLen+maxOff)
	for i := range random {
		random[i] = rng.Intn(2) == 1
	}
	patterns := map[string]func(i int) bool{
		"false":       func(int) bool { return false },
		"true":        func(int) bool { return true },
		"alternating": func(i int) bool { return i%2 == 1 },
		"random":      func(i int) bool { return random[i] },
	}
	for pname, pattern := range patterns {
		backing := make([]bool, maxLen+maxOff)
		for i := range backing {
			backing[i] = pattern(i)
		}
		for prefix, start := range refPrefixes {
			for off := 0; off <= maxOff; off++ {
				for n := 0; n <= maxLen; n++ {
					vs := backing[off : off+n]
					got := start().Bools(vs).Sum()
					want := refBools(start(), vs).Sum()
					if got != want {
						t.Fatalf("%s after %s prefix, offset %d, len %d: digest %#x, want %#x", pname, prefix, off, n, got, want)
					}
				}
			}
		}
	}
}
