package cube

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestPackKeyRoundTripExhaustive walks the entire mixed-radix code space —
// every combination of every attribute's full vocabulary plus Wildcard in
// every position — and requires PackKey/UnpackKey to be mutually inverse.
func TestPackKeyRoundTripExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive code-space walk")
	}
	total := uint64(1)
	for a := 0; a < NumAttrs; a++ {
		total *= packRadix[a]
	}
	for code := uint64(0); code < total; code++ {
		k := UnpackKey(code)
		if got := PackKey(k); got != code {
			t.Fatalf("PackKey(UnpackKey(%d)) = %d", code, got)
		}
	}
	// And the reverse direction on the boundary keys of each attribute.
	for a := 0; a < NumAttrs; a++ {
		for _, v := range []int16{Wildcard, 0, int16(Cardinality(Attr(a)) - 1)} {
			k := KeyAll.With(Attr(a), v)
			if back := UnpackKey(PackKey(k)); back != k {
				t.Fatalf("UnpackKey(PackKey(%v)) = %v", k, back)
			}
		}
	}
}

// TestPackKeyOrderMatchesLessKey pins the property the packed build's sort
// relies on: ascending code order is exactly lessKey order.
func TestPackKeyOrderMatchesLessKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randKey := func() Key {
		var k Key
		for a := 0; a < NumAttrs; a++ {
			k[a] = int16(rng.Intn(Cardinality(Attr(a))+1)) - 1 // -1 = Wildcard
		}
		return k
	}
	for i := 0; i < 20000; i++ {
		a, b := randKey(), randKey()
		if lessKey(a, b) != (PackKey(a) < PackKey(b)) {
			t.Fatalf("order mismatch: %v (code %d) vs %v (code %d)",
				a, PackKey(a), b, PackKey(b))
		}
	}
}

// wildcardedTuples seeds a tuple set with unresolved states and cities so
// the packed build's missing-attribute skip paths are exercised.
func wildcardedTuples(n int, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple, n)
	for i := range tuples {
		var t Tuple
		t.Vals[Gender] = int16(rng.Intn(Cardinality(Gender)))
		t.Vals[Age] = int16(rng.Intn(Cardinality(Age)))
		t.Vals[Occupation] = int16(rng.Intn(Cardinality(Occupation)))
		t.Vals[State] = int16(rng.Intn(6))
		t.Vals[City] = int16(rng.Intn(12))
		if i%17 == 0 {
			t.Vals[State] = Wildcard
		}
		if i%11 == 0 {
			t.Vals[City] = Wildcard
		}
		t.Score = int8(1 + rng.Intn(5))
		t.Unix = int64(978300000 + rng.Intn(1000000))
		t.UserID = int32(i + 1)
		t.ItemID = 1
		tuples[i] = t
	}
	return tuples
}

// trafficTuples shapes a tuple set like a plan's R_I: ratings by a
// population of users with skewed demographics spread over every state,
// a few heavy raters, and a sprinkle of unresolved values in each free
// attribute. Tuples by the same user share all their attribute values,
// which is what the roll-up build exploits.
func trafficTuples(n int, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	skewed := func(card int) int16 { // quadratic skew toward low indices
		u := rng.Float64()
		return int16(float64(card) * u * u)
	}
	maybeWild := func(v int16, oneIn int) int16 {
		if rng.Intn(oneIn) == 0 {
			return Wildcard
		}
		return v
	}
	users := make([][NumAttrs]int16, 6040)
	for i := range users {
		var v [NumAttrs]int16
		v[Gender] = maybeWild(skewed(Cardinality(Gender)), 200)
		v[Age] = maybeWild(skewed(Cardinality(Age)), 200)
		v[Occupation] = maybeWild(skewed(Cardinality(Occupation)), 200)
		v[State] = maybeWild(skewed(Cardinality(State)), 40)
		v[City] = maybeWild(skewed(Cardinality(City)), 20)
		users[i] = v
	}
	tuples := make([]Tuple, n)
	for i := range tuples {
		u := int(skewed(len(users)))
		tuples[i] = Tuple{
			Vals:   users[u],
			Score:  int8(1 + rng.Intn(5)),
			Unix:   int64(978300000 + rng.Intn(1000000)),
			UserID: int32(u + 1),
			ItemID: int32(1 + rng.Intn(50)),
		}
	}
	return tuples
}

// TestBuildMatchesReference is the differential test behind the packed
// build: on seeded datasets — with city mining off, enabled, and required —
// Build must reproduce BuildReference group-for-group: identical order,
// keys, aggregates and member lists.
func TestBuildMatchesReference(t *testing.T) {
	stateGaps := randomTuples(5000, 77)
	for i := 0; i < len(stateGaps); i += 97 {
		stateGaps[i].Vals[State] = Wildcard
	}
	datasets := []struct {
		name   string
		tuples []Tuple
	}{
		{"plain", randomTuples(3000, 41)},
		{"wildcarded", wildcardedTuples(3000, 43)},
		{"wildcard-state-every-97", stateGaps},
		{"traffic", trafficTuples(6000, 59)},
		{"tiny", randomTuples(7, 47)},
		{"five-tuples", randomTuples(5, 3)},
		{"empty", nil},
	}
	configs := []Config{
		{RequireState: true, MinSupport: 12, MaxAVPairs: 3, SkipApex: true}, // demo default
		{RequireState: false, MinSupport: 5, MaxAVPairs: 2, SkipApex: true}, // framework mode
		{RequireState: false, MinSupport: 1},                                // no pruning
		{RequireState: true, MinSupport: 8, MaxAVPairs: 2, SkipApex: true},
		{RequireState: false, MinSupport: 5, MaxAVPairs: 3},
		{RequireState: true, EnableCity: true, MinSupport: 3, MaxAVPairs: 3, SkipApex: true},
		{RequireCity: true, MinSupport: 3, MaxAVPairs: 4, SkipApex: true}, // drill-down mining
		{RequireState: true, RequireCity: true, MinSupport: 2, MaxAVPairs: 4, SkipApex: true},
		{EnableCity: true, MinSupport: 2, MaxAVPairs: 1, SkipApex: false},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			for _, cfg := range configs {
				requireSameCube(t, cfg, Build(ds.tuples, cfg), BuildReference(ds.tuples, cfg))
			}
		})
	}
}

// requireSameCube fails unless got equals the reference cube group for
// group — order, keys, aggregates and member lists — and indexes every
// key at its reference position.
func requireSameCube(t testing.TB, cfg Config, got, ref *Cube) {
	t.Helper()
	if got.Len() != ref.Len() {
		t.Fatalf("%+v: %d groups, reference %d", cfg, got.Len(), ref.Len())
	}
	for i := range ref.Groups {
		if !reflect.DeepEqual(got.Groups[i], ref.Groups[i]) {
			t.Fatalf("%+v: group %d differs:\npacked    %+v\nreference %+v",
				cfg, i, got.Groups[i], ref.Groups[i])
		}
		if j, ok := got.IndexOf(ref.Groups[i].Key); !ok || j != i {
			t.Fatalf("%+v: key index broken for %v", cfg, ref.Groups[i].Key)
		}
	}
}

// TestPackCodeSpaceFits32Bits pins the bound packTable's slots and
// Build's survivor sort key rely on: every cell code, plus one, fits in
// 32 bits.
func TestPackCodeSpaceFits32Bits(t *testing.T) {
	space := uint64(1)
	for a := 0; a < NumAttrs; a++ {
		space *= packRadix[a]
	}
	if space >= 1<<32 {
		t.Fatalf("code space %d does not fit 32 bits", space)
	}
}

// TestPackTableGrowth forces the flat table through several rehashes and
// checks no cell is lost or double-counted and every cell keeps the id
// it was first given.
func TestPackTableGrowth(t *testing.T) {
	tab := newPackTable(16)
	const n = 50000
	first := map[uint64]int32{}
	for i := 0; i < n; i++ {
		code := uint64(i%9973) * 3
		id := tab.id(code)
		if want, seen := first[code]; seen && id != want {
			t.Fatalf("code %d moved from id %d to %d", code, want, id)
		} else if !seen {
			first[code] = id
		}
		tab.aggs[id].Add(int8(1 + i%5))
	}
	if len(tab.codes) != 9973 {
		t.Fatalf("distinct cells = %d, want 9973", len(tab.codes))
	}
	count := 0
	for id, agg := range tab.aggs {
		count += agg.Count
		if first[tab.codes[id]] != int32(id) {
			t.Fatalf("cell %d holds code %d, first given id %d", id, tab.codes[id], first[tab.codes[id]])
		}
	}
	if count != n {
		t.Fatalf("total count across cells = %d, want %d", count, n)
	}
	if id := tab.id(9973*3 + 1); int(id) != 9973 || len(tab.codes) != 9974 {
		t.Fatalf("absent code got id %d with %d cells", id, len(tab.codes))
	}
}

// TestMemberArenaIsolation verifies the shared member arena cannot leak
// writes across groups: every member list has capacity == length, so an
// append by a consumer reallocates instead of clobbering its neighbour.
func TestMemberArenaIsolation(t *testing.T) {
	c := Build(randomTuples(2000, 53), DefaultConfig())
	if c.Len() < 2 {
		t.Skip("need at least two groups")
	}
	for i := range c.Groups {
		m := c.Groups[i].Members
		if cap(m) != len(m) {
			t.Fatalf("group %d members cap %d != len %d — arena neighbour clobberable", i, cap(m), len(m))
		}
	}
	g0 := c.Groups[0].Members
	next := c.Groups[1].Members[0]
	_ = append(g0, -7) // must copy, not write into group 1's range
	if c.Groups[1].Members[0] != next {
		t.Fatal("append to one group's members overwrote the next group")
	}
}
