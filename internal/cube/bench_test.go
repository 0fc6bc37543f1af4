package cube

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func benchTuples(n int) []Tuple {
	return randomTuples(n, 42)
}

func BenchmarkBuildGeoAnchored(b *testing.B) {
	tuples := benchTuples(10_000)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Build(tuples, cfg)
		if c.Len() == 0 {
			b.Fatal("empty cube")
		}
	}
}

func BenchmarkBuildFramework(b *testing.B) {
	tuples := benchTuples(10_000)
	cfg := Config{RequireState: false, MinSupport: 12, MaxAVPairs: 3, SkipApex: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Build(tuples, cfg)
		if c.Len() == 0 {
			b.Fatal("empty cube")
		}
	}
}

// BenchmarkBuildPacked measures the roll-up cube build. "packed" and
// "reference" compare it with the retained reference (map[Key]*cell)
// build on the identical 8-state input. "plan" and "genre" shape the
// input like live traffic (see trafficTuples): about 5.6k tuples is a
// typical plan's R_I, and about 130k a whole-genre query.
func BenchmarkBuildPacked(b *testing.B) {
	cfg := DefaultConfig()
	run := func(name string, tuples []Tuple, build func([]Tuple, Config) *Cube) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c := build(tuples, cfg); c.Len() == 0 {
					b.Fatal("empty cube")
				}
			}
		})
	}
	tuples := benchTuples(10_000)
	run("packed", tuples, Build)
	run("reference", tuples, BuildReference)
	run("plan", trafficTuples(5_600, 42), Build)
	run("genre", trafficTuples(130_000, 42), Build)
}

func BenchmarkKeyMatches(b *testing.B) {
	k := KeyAll.With(Gender, 1).With(State, 7)
	vals := [NumAttrs]int16{1, 3, 12, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Matches(vals) {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkAggAdd(b *testing.B) {
	var a Agg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Add(int8(1 + i%5))
	}
	if a.Count != b.N {
		b.Fatal("count mismatch")
	}
}

func BenchmarkKeyPhrase(b *testing.B) {
	k := KeyAll.With(Gender, 1).With(Age, 0).With(Occupation, 10).With(State, StateIndex("NY"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(k.Phrase()) == 0 {
			b.Fatal("empty phrase")
		}
	}
}

// BenchmarkExtend measures the successor cube build after an append:
// Extend over the typical 5.6k-tuple plan of BuildPacked/plan with 4 and
// 16 ratings inserted at random places, beside Build over the same
// 16-rating successor.
func BenchmarkExtend(b *testing.B) {
	cfg := DefaultConfig()
	seedTuples := trafficTuples(5_600, 42)
	prev := Build(seedTuples, cfg).Seed()
	rng := rand.New(rand.NewSource(43))
	successor := func(n int) ([]Tuple, []int32) {
		at := make([]int32, 0, n)
		for _, p := range rng.Perm(len(seedTuples) + n)[:n] {
			at = append(at, int32(p))
		}
		slices.Sort(at)
		return insertAt(seedTuples, trafficTuples(n, int64(n)), at)
	}
	for _, n := range []int{4, 16} {
		tuples, added := successor(n)
		if extend(prev, tuples, added, cfg) == nil {
			b.Fatal("the successor fell back to Build")
		}
		b.Run(fmt.Sprintf("delta%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if c := Extend(prev, tuples, added, cfg); c.Len() == 0 {
					b.Fatal("empty cube")
				}
			}
		})
		if n == 16 {
			b.Run("build16", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if c := Build(tuples, cfg); c.Len() == 0 {
						b.Fatal("empty cube")
					}
				}
			})
		}
	}
}
