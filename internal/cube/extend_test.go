package cube

import (
	"reflect"
	"slices"
	"testing"
)

// withoutIndices returns tuples with the entries at the indices added
// taken out: the tuple set a successor's seed held.
func withoutIndices(tuples []Tuple, added []int32) []Tuple {
	sorted := slices.Sorted(slices.Values(added))
	out := make([]Tuple, 0, len(tuples))
	for ti := range tuples {
		if _, ok := slices.BinarySearch(sorted, int32(ti)); !ok {
			out = append(out, tuples[ti])
		}
	}
	return out
}

// requireExtendMatchesBuild extends the seed of the cube of
// tuples-minus-added, built under prevCfg, by added under cfg, and
// requires the result to deep-equal Build(tuples, cfg): tuples, groups
// with their keys, aggs and members, the key index and the config. It
// reports whether Extend reused the seed rather than falling back to
// Build.
func requireExtendMatchesBuild(t testing.TB, tuples []Tuple, added []int32, prevCfg, cfg Config) bool {
	t.Helper()
	prev := Build(withoutIndices(tuples, added), prevCfg).Seed()
	reused := extend(prev, tuples, added, cfg) != nil
	got, want := Extend(prev, tuples, added, cfg), Build(tuples, cfg)
	if !reflect.DeepEqual(got, want) {
		requireSameCube(t, cfg, got, want)
		t.Fatalf("%+v: Extend differs from Build outside the groups", cfg)
	}
	return reused
}

// insertAt returns tuples with each delta tuple inserted so that it
// lands at the matching ascending index of the result, and those
// indices.
func insertAt(tuples, delta []Tuple, at []int32) ([]Tuple, []int32) {
	out := make([]Tuple, 0, len(tuples)+len(delta))
	k := 0
	for _, t := range tuples {
		for k < len(at) && int(at[k]) == len(out) {
			out = append(out, delta[k])
			k++
		}
		out = append(out, t)
	}
	for ; k < len(at); k++ {
		out = append(out, delta[k])
	}
	return out, at
}

// TestExtendMatchesBuild: a successor cube extended from its seed equals
// the cube built from scratch, for deltas anywhere in a plan's item runs,
// deltas without a state, an empty delta, a delta that lifts a pruned
// cell over MinSupport, and every config that takes the fallback.
func TestExtendMatchesBuild(t *testing.T) {
	geo := DefaultConfig()
	// A plan's tuples are its items' runs, concatenated: three runs of
	// 200 here, with ratings inserted around their starts, middles and
	// ends.
	base := trafficTuples(600, 7)
	delta := trafficTuples(7, 8)
	runEdges := []int32{0, 100, 199, 200, 300, 399, 599}
	all, added := insertAt(base, delta, runEdges)

	wild := slices.Clone(delta)
	for i := range wild {
		wild[i].Vals[State] = Wildcard
	}
	allWild, _ := insertAt(base, wild, runEdges)

	// Eleven tuples of one profile, alone in their state, sit one short
	// of MinSupport 12; a twelfth lifts their state's cells into the
	// cube.
	rare := int16(Cardinality(State) - 1)
	profile := Tuple{Vals: [NumAttrs]int16{1, 2, 3, rare, 5}, Score: 4}
	short := slices.DeleteFunc(slices.Clone(base[:300]), func(t Tuple) bool { return t.Vals[State] == rare })
	for i := 0; i < 11; i++ {
		short = append(short, profile)
	}
	lifted, liftAdded := insertAt(short, []Tuple{profile}, []int32{150})
	liftKey := KeyAll.With(Gender, 1).With(State, rare)
	if _, ok := Build(short, geo).Group(liftKey); ok {
		t.Fatal("fixture: the profile's cell already passes MinSupport")
	}
	if g, ok := Build(lifted, geo).Group(liftKey); !ok || g.Support() != 12 {
		t.Fatal("fixture: the added tuple does not lift the profile's cell")
	}

	// The engine adapts MinSupport to |R_I|/50 below the base's 12: ten
	// ratings take a 590-tuple seed (MinSupport 11) to 600 tuples
	// (MinSupport 12).
	small := trafficTuples(590, 9)
	grown, grownAdded := insertAt(small, trafficTuples(10, 10), []int32{0, 50, 100, 150, 200, 250, 300, 350, 400, 599})
	seedGeo := geo
	seedGeo.MinSupport = len(small) / 50

	wide, wideAdded := insertAt(trafficTuples(70_000, 13), trafficTuples(5, 14), []int32{3, 20_000, 66_000, 69_999, 70_004})
	if s := Build(withoutIndices(wide, wideAdded), geo).Seed(); s.mem32 == nil {
		t.Fatal("fixture: a 70k-tuple cube's seed stores 16-bit members")
	}

	city := Config{RequireState: true, RequireCity: true, MinSupport: 3, MaxAVPairs: 3, SkipApex: true}
	cityOnly := Config{RequireCity: true, MinSupport: 3, MaxAVPairs: 3, SkipApex: true}
	for _, c := range []struct {
		name          string
		tuples        []Tuple
		added         []int32
		prevCfg, cfg  Config
		wantExtension bool
	}{
		{"run edges", all, added, geo, geo, true},
		{"wildcard states", allWild, added, geo, geo, true},
		{"empty delta", base, nil, geo, geo, true},
		{"delta at the end", all, []int32{int32(len(all) - 1)}, geo, geo, true},
		{"lifts a pruned cell", lifted, liftAdded, geo, geo, true},
		{"city cube", all, added, city, city, true},
		{"adaptive MinSupport moves", grown, grownAdded, seedGeo, geo, false},
		{"framework", all, added, FrameworkConfig(), FrameworkConfig(), false},
		{"city without state", all, added, cityOnly, cityOnly, false},
		{"added out of order", all, []int32{300, 100}, geo, geo, false},
		{"added past the end", all, []int32{int32(len(all))}, geo, geo, false},
		// Member indices past 16 bits: the seed keeps them 32 bits wide.
		{"wide plan", wide, wideAdded, geo, geo, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := requireExtendMatchesBuild(t, c.tuples, c.added, c.prevCfg, c.cfg); got != c.wantExtension {
				t.Errorf("Extend reused the seed: %v, want %v", got, c.wantExtension)
			}
		})
	}
}

// FuzzExtendMatchesBuild requires Extend to equal Build on arbitrary
// tuple sets, deltas and configs. The input is decodeFuzzBuild's, which
// reads a record's score byte modulo 5; the tuple is added when the
// byte divided by 5 is odd. Header flag 2 builds the seed at
// MinSupport+1, so the fallback on a moved MinSupport is fuzzed too.
func FuzzExtendMatchesBuild(f *testing.F) {
	mark := func(data []byte, every int) []byte {
		for i := 0; 3+(i+1)*fuzzTupleBytes <= len(data); i++ {
			if i%every == 0 {
				data[3+(i+1)*fuzzTupleBytes-1] += 5
			}
		}
		return data
	}
	f.Add(mark(encodeFuzzBuild([3]byte{1 | 8, 12, 3}, trafficTuples(300, 1)), 37))
	f.Add(mark(encodeFuzzBuild([3]byte{1 | 8, 3, 3}, wildcardedTuples(128, 2)), 9))
	f.Add(mark(encodeFuzzBuild([3]byte{1 | 4 | 8, 2, 4}, trafficTuples(128, 3)), 5))
	f.Add(mark(encodeFuzzBuild([3]byte{1 | 2 | 8, 4, 3}, randomTuples(64, 4)), 7))
	f.Add(mark(encodeFuzzBuild([3]byte{8, 2, 2}, randomTuples(64, 5)), 3))
	f.Add(encodeFuzzBuild([3]byte{1, 1, 0}, randomTuples(32, 6)))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, tuples := decodeFuzzBuild(data)
		var added []int32
		for i := range tuples {
			if data[3+(i+1)*fuzzTupleBytes-1]/5%2 == 1 {
				added = append(added, int32(i))
			}
		}
		prevCfg := cfg
		if len(data) > 0 && data[0]&2 != 0 {
			prevCfg.MinSupport++
		}
		requireExtendMatchesBuild(t, tuples, added, prevCfg, cfg)
	})
}
