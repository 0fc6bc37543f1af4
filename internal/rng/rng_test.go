package rng

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestNewMatchesHistoricalSeeding(t *testing.T) {
	// Datasets generated before the rng package existed must stay
	// byte-identical: New(seed) must produce the math/rand stream.
	for _, seed := range []int64{1, 7, 42, -3} {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		for i := 0; i < 100; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: draw %d: got %d, want %d", seed, i, g, w)
			}
		}
	}
}

func TestSubIsDeterministic(t *testing.T) {
	a := Sub(5, 3)
	b := Sub(5, 3)
	for i := 0; i < 100; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
}

func TestSubStreamsDiffer(t *testing.T) {
	// Adjacent streams of one seed, and the colliding naive pairs
	// (seed+1, stream) vs (seed, stream+1), must all produce distinct
	// streams.
	pairs := [][2][2]int64{
		{{1, 0}, {1, 1}},
		{{1, 1}, {2, 0}},
		{{0, 1}, {1, 0}},
	}
	for _, pr := range pairs {
		a := Sub(pr[0][0], pr[0][1])
		b := Sub(pr[1][0], pr[1][1])
		same := true
		for i := 0; i < 16; i++ {
			if a.Int63() != b.Int63() {
				same = false
				break
			}
		}
		if same {
			t.Errorf("streams %v and %v coincide", pr[0], pr[1])
		}
	}
}

func TestMixSpreadsLowBits(t *testing.T) {
	seen := make(map[uint64]bool)
	for s := uint64(0); s < 1000; s++ {
		v := Mix(1, s)
		if seen[v] {
			t.Fatalf("collision at stream %d", s)
		}
		seen[v] = true
	}
}

// sameStream fails unless got and want yield identical draws through every
// rand.Rand method the repository uses, including Perm, and through
// Int63n, the path Intn takes for bounds above 2³¹−1.
func sameStream(t testing.TB, label string, got, want *rand.Rand, draws int) {
	t.Helper()
	for i := 0; i < draws; i++ {
		var g, w int64
		switch i % 7 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = int64(got.Uint64()), int64(want.Uint64())
		case 2:
			g, w = int64(math.Float64bits(got.Float64())), int64(math.Float64bits(want.Float64()))
		case 3:
			n := 1 + i%1000
			g, w = int64(got.Intn(n)), int64(want.Intn(n))
		case 4:
			n := int64(1)<<40 + int64(i)
			g, w = got.Int63n(n), want.Int63n(n)
		case 5:
			n := int32(1 + i%97)
			g, w = int64(got.Int31n(n)), int64(want.Int31n(n))
		case 6:
			gp, wp := got.Perm(1+i%9), want.Perm(1+i%9)
			for j := range wp {
				if gp[j] != wp[j] {
					t.Fatalf("%s: draw %d: Perm %v, want %v", label, i, gp, wp)
				}
			}
		}
		if g != w {
			t.Fatalf("%s: draw %d: got %d, want %d", label, i, g, w)
		}
	}
}

// edgeSeeds are the seeds where math/rand's reduction mod 2³¹−1 branches:
// zero (replaced by a fixed seed), the replacement itself, negatives,
// multiples of the modulus and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 89482311, -89482311,
	int32max - 1, int32max, int32max + 1, -int32max, 2 * int32max, -2 * int32max,
	1 << 31, 1 << 32, 1<<62 - 1,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - int32max,
	(math.MaxInt64 / int32max) * int32max,
}

// checkSeed compares New(seed) and Sub(seed, stream) against math/rand,
// then re-seeds both used generators and compares again.
func checkSeed(t testing.TB, seed, stream int64, draws int) {
	t.Helper()
	got, want := New(seed), rand.New(rand.NewSource(seed))
	sameStream(t, fmt.Sprintf("New(%d)", seed), got, want, draws)
	got.Seed(seed ^ stream)
	want.Seed(seed ^ stream)
	sameStream(t, fmt.Sprintf("New(%d) re-seeded %d", seed, seed^stream), got, want, draws)

	mixed := int64(Mix(uint64(seed), uint64(stream)))
	got, want = Sub(seed, stream), rand.New(rand.NewSource(mixed))
	sameStream(t, fmt.Sprintf("Sub(%d, %d)", seed, stream), got, want, draws)
	Reseed(got, stream, seed)
	want.Seed(int64(Mix(uint64(stream), uint64(seed))))
	sameStream(t, fmt.Sprintf("Sub(%d, %d) reseeded", seed, stream), got, want, draws)
}

// TestSourceMatchesMathRand pins the in-repo source to math/rand's: every
// generator New, Sub and Reseed hand out must draw exactly what
// rand.New(rand.NewSource(...)) draws for the same seed.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		checkSeed(t, seed, 3, 1500)
	}
	pick := rand.New(rand.NewSource(2012))
	for i := 0; i < 3000; i++ {
		seed := int64(i) - 1000
		if i%2 == 1 {
			seed = int64(pick.Uint64())
		}
		checkSeed(t, seed, int64(i%40), 150)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, int64(0))
	}
	f.Add(int64(1), int64(15))
	f.Fuzz(func(t *testing.T, seed, stream int64) {
		checkSeed(t, seed, stream, 400)
	})
}

// BenchmarkSeed times one restart's re-seed: the table-driven source
// against math/rand's serial chain.
func BenchmarkSeed(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		gen := Sub(1, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Reseed(gen, 1, int64(i))
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		gen := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gen.Seed(int64(Mix(1, uint64(i))))
		}
	})
}
