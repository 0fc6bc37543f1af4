// Package rng centralizes the repository's deterministic random number
// generation. Every randomized component (the synthetic dataset generator,
// the RHE solver, the random baseline) seeds through this package so that
//
//   - a fixed seed reproduces the same stream on every run, and
//   - independent sub-streams can be derived for parallel workers without
//     the streams overlapping or correlating.
//
// New(seed) is stream-compatible with the historical
// rand.New(rand.NewSource(seed)) seeding, so datasets generated before the
// refactor are byte-identical. The generators run on an in-repo copy of
// math/rand's source (source.go) whose Seed is table-driven instead of a
// serial chain; TestSourceMatchesMathRand pins it to math/rand draw for
// draw. Sub(seed, stream) mixes the stream index through SplitMix64 before
// seeding, so per-restart generators handed to worker goroutines are
// decorrelated even for adjacent seeds — the naive seed+stream (or
// seed⊕stream without mixing) would make seed 2/stream 0 collide with
// seed 1/stream 1.
package rng

import "math/rand"

// golden is the SplitMix64 increment (⌊2⁶⁴/φ⌋), used to spread stream
// indices across the 64-bit space before mixing.
const golden = 0x9E3779B97F4A7C15

// New returns a deterministic generator for seed (stream-compatible with
// the pre-refactor rand.NewSource seeding). The returned *rand.Rand is not
// safe for concurrent use; derive one per goroutine with Sub.
func New(seed int64) *rand.Rand {
	src := new(source)
	src.Seed(seed)
	return rand.New(src)
}

// Sub returns the generator for the stream-th independent sub-stream of
// seed. Callers fan restarts or shards across goroutines by giving worker
// i the generator Sub(seed, i); results are then independent of how the
// streams are scheduled onto goroutines.
//
// The source reduces the mixed 64-bit seed mod 2³¹−1, as math/rand's
// does, so the effective seed space of a sub-stream is 31 bits.
func Sub(seed, stream int64) *rand.Rand {
	return New(subSeed(seed, stream))
}

// Reseed re-seeds gen in place so that it continues exactly as a fresh
// Sub(seed, stream) would. A worker that runs many restarts keeps one
// generator and re-seeds it per restart instead of allocating one each.
func Reseed(gen *rand.Rand, seed, stream int64) {
	gen.Seed(subSeed(seed, stream))
}

func subSeed(seed, stream int64) int64 {
	return int64(Mix(uint64(seed), uint64(stream)))
}

// Mix hashes a (seed, stream) pair into a well-distributed 64-bit value
// using SplitMix64's finalizer.
func Mix(seed, stream uint64) uint64 {
	z := seed + stream*golden + golden
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
