// Package detrand wraps math/rand sources with draw counting so RNG state
// becomes hashable and clonable. math/rand exposes no way to read or copy a
// generator's position, but every generator here is (a) seeded from a known
// value and (b) consumed strictly sequentially, so its full state is (seed,
// number of draws): cloning is reseeding and discarding that many draws.
// This is what lets Machine.StateHash digest the jitter/noise RNG positions
// and Machine.Fork resume them mid-stream, keeping forked runs
// bit-identical.
//
// The wrapper is stream-identical to rand.New(rand.NewSource(seed)): it
// implements rand.Source64 and delegates both Int63 and Uint64 to the
// underlying runtime source, so swapping it in changes no simulated outcome.
package detrand

import "math/rand"

// Source is a counting rand.Source64. Not safe for concurrent use — exactly
// like the rand.Rand values it backs.
type Source struct {
	seed  int64
	src   rand.Source64
	draws uint64
}

// NewSource builds a counting source with the given seed.
func NewSource(seed int64) *Source {
	return &Source{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// New builds a rand.Rand backed by a counting source, returning both. The
// Rand's value stream is identical to rand.New(rand.NewSource(seed)).
//
// Callers must not use Rand.Read: it buffers bytes internally, which the
// (seed, draws) state does not capture. Every other Rand method consumes
// whole source draws and clones exactly.
func New(seed int64) (*rand.Rand, *Source) {
	s := NewSource(seed)
	return rand.New(s), s
}

// Int63 draws via the underlying source, counting the draw.
func (s *Source) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 draws via the underlying source, counting the draw.
func (s *Source) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed reseeds and resets the draw counter.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.src.Seed(seed)
}

// Draws reports how many values have been drawn since the last (re)seed —
// together with the seed, the source's complete state.
func (s *Source) Draws() uint64 { return s.draws }

// Clone returns an independent source at the same stream position: the
// same seed, reseeded separately and advanced by the same number of draws.
// The clone and the original produce identical subsequent streams without
// sharing state — the primitive Machine.Fork uses to make forks
// RNG-independent.
func (s *Source) Clone() *Source {
	c := NewSource(s.seed)
	for i := uint64(0); i < s.draws; i++ {
		c.src.Uint64()
	}
	c.draws = s.draws
	return c
}
