package cube

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/model"
)

// randomTuples builds n tuples with fully resolved attributes using a seeded
// generator, so tests are deterministic.
func randomTuples(n int, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]Tuple, n)
	for i := range tuples {
		var t Tuple
		t.Vals[Gender] = int16(rng.Intn(Cardinality(Gender)))
		t.Vals[Age] = int16(rng.Intn(Cardinality(Age)))
		t.Vals[Occupation] = int16(rng.Intn(Cardinality(Occupation)))
		t.Vals[State] = int16(rng.Intn(8)) // few states so cells get support
		t.Score = int8(1 + rng.Intn(5))
		t.Unix = int64(978300000 + rng.Intn(1000000))
		tuples[i] = t
	}
	return tuples
}

func TestKeyWithAndHas(t *testing.T) {
	k := KeyAll
	if k.NumConstrained() != 0 {
		t.Fatalf("KeyAll constrained = %d", k.NumConstrained())
	}
	k = k.With(Gender, 1).With(State, 3)
	if !k.Has(Gender) || !k.Has(State) || k.Has(Age) {
		t.Errorf("Has wrong: %v", k)
	}
	if k.NumConstrained() != 2 {
		t.Errorf("NumConstrained = %d, want 2", k.NumConstrained())
	}
	// With must not mutate the receiver.
	if KeyAll.Has(Gender) {
		t.Error("With mutated KeyAll")
	}
}

func TestKeyMatchesAndContains(t *testing.T) {
	vals := [NumAttrs]int16{0, 2, 12, 5}
	if !KeyAll.Matches(vals) {
		t.Error("KeyAll should match everything")
	}
	k := KeyAll.With(Age, 2).With(State, 5)
	if !k.Matches(vals) {
		t.Error("matching key rejected")
	}
	if k.Matches([NumAttrs]int16{0, 3, 12, 5}) {
		t.Error("non-matching key accepted")
	}
	if !KeyAll.Contains(k) {
		t.Error("apex must contain every key")
	}
	if k.Contains(KeyAll) {
		t.Error("specific key cannot contain apex")
	}
	if !k.Contains(k.With(Gender, 1)) {
		t.Error("key must contain its refinement")
	}
}

func TestSiblingOf(t *testing.T) {
	a := KeyAll.With(Gender, 0).With(Age, 0).With(State, 3)
	b := a.With(Gender, 1)
	attr, ok := a.SiblingOf(b)
	if !ok || attr != Gender {
		t.Fatalf("SiblingOf = %v, %v; want Gender, true", attr, ok)
	}
	if _, ok := a.SiblingOf(a); ok {
		t.Error("a key is not its own sibling")
	}
	c := a.With(Gender, Wildcard)
	if _, ok := a.SiblingOf(c); ok {
		t.Error("different wildcard masks cannot be siblings")
	}
	d := b.With(Age, 1)
	if _, ok := a.SiblingOf(d); ok {
		t.Error("two differing values cannot be siblings")
	}
}

func TestSiblingSymmetryProperty(t *testing.T) {
	mk := func(g, ag, st int8) Key {
		return KeyAll.
			With(Gender, int16(abs8(g))%2).
			With(Age, int16(abs8(ag))%7).
			With(State, int16(abs8(st))%51)
	}
	f := func(g1, a1, s1, g2, a2, s2 int8) bool {
		ka, kb := mk(g1, a1, s1), mk(g2, a2, s2)
		aAttr, aOK := ka.SiblingOf(kb)
		bAttr, bOK := kb.SiblingOf(ka)
		return aOK == bOK && (!aOK || aAttr == bAttr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs8(x int8) int16 {
	v := int16(x)
	if v < 0 {
		return -v
	}
	return v
}

func TestKeyStringAndPhrase(t *testing.T) {
	k := KeyAll.With(Gender, int16(model.Female)).
		With(Age, int16(model.AgeUnder18)).
		With(Occupation, 10).
		With(State, StateIndex("NY"))
	s := k.String()
	want := "gender=female ∧ age=under 18 ∧ occupation=K-12 student ∧ state=NY"
	if s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
	p := k.Phrase()
	wantP := "female under-18 K-12 student reviewers from New York"
	if p != wantP {
		t.Errorf("Phrase() = %q, want %q", p, wantP)
	}
	if KeyAll.String() != "⟨all⟩" {
		t.Errorf("apex String() = %q", KeyAll.String())
	}
	if KeyAll.Phrase() != "reviewers" {
		t.Errorf("apex Phrase() = %q", KeyAll.Phrase())
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	k, err := ParseKey("gender=F,age=under 18,occupation=K-12 student,state=NY")
	if err != nil {
		t.Fatalf("ParseKey: %v", err)
	}
	want := KeyAll.With(Gender, int16(model.Female)).
		With(Age, int16(model.AgeUnder18)).
		With(Occupation, 10).
		With(State, StateIndex("NY"))
	if k != want {
		t.Errorf("ParseKey = %v, want %v", k, want)
	}
	if k2, err := ParseKey(""); err != nil || k2 != KeyAll {
		t.Errorf("ParseKey(\"\") = %v, %v", k2, err)
	}
	// MovieLens raw encodings.
	if k3, err := ParseKey("gender=M,age=18"); err != nil ||
		k3[Gender] != int16(model.Male) || k3[Age] != int16(model.Age18to24) {
		t.Errorf("raw encodings: %v, %v", k3, err)
	}
	for _, bad := range []string{"nope=3", "gender", "state=ZZ", "age=999", "state=CA,state=NY", "age=18,gender=F,age=18"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) should fail", bad)
		}
	}
}

func TestKeyParamRoundTrip(t *testing.T) {
	keys := []Key{
		KeyAll,
		KeyAll.With(State, StateIndex("CA")),
		KeyAll.With(Gender, 0).With(Age, 3).With(Occupation, 12).With(State, StateIndex("TX")),
		KeyAll.With(Gender, 1).With(Age, 0),
	}
	for _, k := range keys {
		back, err := ParseKey(k.Param())
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", k.Param(), err)
		}
		if back != k {
			t.Errorf("Param round trip: %v -> %q -> %v", k, k.Param(), back)
		}
	}
}

func TestStateIndexRoundTrip(t *testing.T) {
	for _, code := range []string{"CA", "NY", "TX", "DC"} {
		i := StateIndex(code)
		if i < 0 {
			t.Fatalf("StateIndex(%s) < 0", code)
		}
		if StateCode(i) != code {
			t.Errorf("round trip %s -> %d -> %s", code, i, StateCode(i))
		}
	}
	if StateIndex("ZZ") != -1 {
		t.Error("unknown state should map to -1")
	}
	if StateCode(-1) != "??" || StateCode(999) != "??" {
		t.Error("out-of-range StateCode should be ??")
	}
}

func TestAggMergeProperty(t *testing.T) {
	f := func(scores []uint8) bool {
		var whole, left, right Agg
		for i, s := range scores {
			sc := int8(1 + s%5)
			whole.Add(sc)
			if i%2 == 0 {
				left.Add(sc)
			} else {
				right.Add(sc)
			}
		}
		merged := left
		merged.Merge(right)
		return merged == whole
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggMoments(t *testing.T) {
	var a Agg
	for _, s := range []int8{1, 2, 3, 4, 5} {
		a.Add(s)
	}
	if a.Mean() != 3 {
		t.Errorf("Mean = %f", a.Mean())
	}
	if math.Abs(a.Variance()-2.0) > 1e-12 {
		t.Errorf("Variance = %f, want 2", a.Variance())
	}
	if math.Abs(a.Std()-math.Sqrt2) > 1e-12 {
		t.Errorf("Std = %f, want sqrt(2)", a.Std())
	}
	var empty Agg
	if empty.Mean() != 0 || empty.Variance() != 0 || empty.Std() != 0 {
		t.Error("empty aggregate moments must be zero")
	}
}

func TestBuildAgainstBruteForce(t *testing.T) {
	tuples := randomTuples(500, 7)
	cfg := Config{RequireState: true, MinSupport: 1, MaxAVPairs: 0, SkipApex: false}
	c := Build(tuples, cfg)
	if c.Len() == 0 {
		t.Fatal("no groups built")
	}
	for gi := range c.Groups {
		g := &c.Groups[gi]
		var want Agg
		members := map[int32]bool{}
		for ti := range tuples {
			if g.Key.Matches(tuples[ti].Vals) {
				want.Add(tuples[ti].Score)
				members[int32(ti)] = true
			}
		}
		if g.Agg != want {
			t.Fatalf("group %v agg = %+v, brute force = %+v", g.Key, g.Agg, want)
		}
		if len(g.Members) != len(members) {
			t.Fatalf("group %v members = %d, brute force = %d", g.Key, len(g.Members), len(members))
		}
		for _, m := range g.Members {
			if !members[m] {
				t.Fatalf("group %v contains non-matching tuple %d", g.Key, m)
			}
		}
	}
}

func TestBuildRequireState(t *testing.T) {
	tuples := randomTuples(200, 3)
	c := Build(tuples, Config{RequireState: true, MinSupport: 1})
	for i := range c.Groups {
		if !c.Groups[i].Key.Has(State) {
			t.Fatalf("geo-anchored cube produced stateless group %v", c.Groups[i].Key)
		}
	}
	free := Build(tuples, Config{RequireState: false, MinSupport: 1})
	foundStateless := false
	for i := range free.Groups {
		if !free.Groups[i].Key.Has(State) {
			foundStateless = true
			break
		}
	}
	if !foundStateless {
		t.Error("free cube should contain stateless groups")
	}
	if free.Len() <= c.Len() {
		t.Errorf("free cube (%d) should be larger than geo-anchored (%d)", free.Len(), c.Len())
	}
}

func TestBuildMinSupportPruning(t *testing.T) {
	tuples := randomTuples(300, 11)
	c := Build(tuples, Config{RequireState: true, MinSupport: 10})
	for i := range c.Groups {
		if c.Groups[i].Support() < 10 {
			t.Fatalf("group %v support %d below MinSupport", c.Groups[i].Key, c.Groups[i].Support())
		}
	}
}

func TestBuildMaxAVPairs(t *testing.T) {
	tuples := randomTuples(300, 13)
	c := Build(tuples, Config{RequireState: true, MinSupport: 1, MaxAVPairs: 2})
	for i := range c.Groups {
		if n := c.Groups[i].Key.NumConstrained(); n > 2 {
			t.Fatalf("group %v has %d AV pairs, cap is 2", c.Groups[i].Key, n)
		}
	}
}

func TestBuildSkipApex(t *testing.T) {
	tuples := randomTuples(100, 17)
	c := Build(tuples, Config{RequireState: false, MinSupport: 1, SkipApex: true})
	if _, ok := c.Group(KeyAll); ok {
		t.Error("apex present despite SkipApex")
	}
	c2 := Build(tuples, Config{RequireState: false, MinSupport: 1, SkipApex: false})
	g, ok := c2.Group(KeyAll)
	if !ok {
		t.Fatal("apex missing")
	}
	if g.Support() != len(tuples) {
		t.Errorf("apex support = %d, want %d", g.Support(), len(tuples))
	}
}

func TestBuildSkipsUnresolvedStates(t *testing.T) {
	tuples := randomTuples(50, 19)
	tuples[0].Vals[State] = Wildcard
	c := Build(tuples, Config{RequireState: true, MinSupport: 1})
	for i := range c.Groups {
		for _, m := range c.Groups[i].Members {
			if m == 0 {
				t.Fatal("tuple with unresolved state included in geo-anchored group")
			}
		}
	}
}

func TestBuildDeterministicOrder(t *testing.T) {
	tuples := randomTuples(400, 23)
	a := Build(tuples, DefaultConfig())
	b := Build(tuples, DefaultConfig())
	if a.Len() != b.Len() {
		t.Fatal("non-deterministic group count")
	}
	for i := range a.Groups {
		if a.Groups[i].Key != b.Groups[i].Key {
			t.Fatalf("order differs at %d: %v vs %v", i, a.Groups[i].Key, b.Groups[i].Key)
		}
	}
	for i := 1; i < a.Len(); i++ {
		if a.Groups[i].Support() > a.Groups[i-1].Support() {
			t.Fatal("groups not sorted by support descending")
		}
	}
}

func TestGroupMAD(t *testing.T) {
	tuples := []Tuple{
		{Vals: [NumAttrs]int16{0, 0, 0, 1}, Score: 1},
		{Vals: [NumAttrs]int16{0, 0, 0, 1}, Score: 5},
	}
	c := Build(tuples, Config{RequireState: true, MinSupport: 1, MaxAVPairs: 1})
	g, ok := c.Group(KeyAll.With(State, 1))
	if !ok {
		t.Fatal("state group missing")
	}
	if mad := g.MAD(tuples); mad != 2 {
		t.Errorf("MAD = %f, want 2 (scores 1 and 5 around mean 3)", mad)
	}
}

func TestJoinRatingAndResolveUser(t *testing.T) {
	u := model.User{ID: 7, Gender: model.Female, Age: model.Age25to34, Occupation: 12, Zip: "94110"}
	ResolveUser(&u)
	if u.State != "CA" || u.City != "San Francisco" {
		t.Fatalf("ResolveUser: %+v", u)
	}
	r := model.Rating{UserID: 7, ItemID: 3, Score: 4, Unix: 978300000}
	tup := JoinRating(r, UserVals(&u))
	if tup.Vals[Gender] != int16(model.Female) || tup.Vals[Age] != int16(model.Age25to34) ||
		tup.Vals[Occupation] != 12 || StateCode(tup.Vals[State]) != "CA" {
		t.Errorf("JoinRating vals = %v", tup.Vals)
	}
	if tup.Score != 4 || CityName(tup.Vals[City]) != "San Francisco" {
		t.Errorf("JoinRating = %+v", tup)
	}
	bad := model.User{ID: 8, Zip: "00000"}
	ResolveUser(&bad)
	tup2 := JoinRating(model.Rating{UserID: 8, ItemID: 1, Score: 3}, UserVals(&bad))
	if tup2.Vals[State] != Wildcard {
		t.Errorf("unresolvable zip should yield Wildcard state, got %d", tup2.Vals[State])
	}
}

func TestParseAttr(t *testing.T) {
	for a := 0; a < NumAttrs; a++ {
		got, err := ParseAttr(Attr(a).String())
		if err != nil || got != Attr(a) {
			t.Errorf("ParseAttr(%q) = %v, %v", Attr(a).String(), got, err)
		}
	}
	if _, err := ParseAttr("bogus"); err == nil {
		t.Error("ParseAttr(bogus) should fail")
	}
}

func TestCityVocabularyUnique(t *testing.T) {
	if Cardinality(City) < 100 {
		t.Fatalf("city vocabulary suspiciously small: %d", Cardinality(City))
	}
	seen := map[string]bool{}
	for i := 0; i < Cardinality(City); i++ {
		name := CityName(int16(i))
		if name == "??" || name == "" {
			t.Fatalf("city %d has no name", i)
		}
		if seen[name] {
			t.Fatalf("duplicate city name %q — the index would be ambiguous", name)
		}
		seen[name] = true
		if CityIndex(name) != int16(i) {
			t.Fatalf("city round trip failed for %q", name)
		}
	}
	if CityIndex("Atlantis") != -1 {
		t.Error("unknown city should map to -1")
	}
	if CityName(-1) != "??" {
		t.Error("invalid index should render ??")
	}
}

// cityTuples builds tuples inside one state with two cities and planted
// per-city means.
func cityTuples(n int) []Tuple {
	la, sf := CityIndex("Los Angeles"), CityIndex("San Francisco")
	ca := StateIndex("CA")
	tuples := make([]Tuple, n)
	for i := range tuples {
		var tp Tuple
		tp.Vals[Gender] = int16(i % 2)
		tp.Vals[Age] = int16(i % 3)
		tp.Vals[Occupation] = int16(i % 4)
		tp.Vals[State] = ca
		if i%2 == 0 {
			tp.Vals[City] = la
			tp.Score = 5
		} else {
			tp.Vals[City] = sf
			tp.Score = 2
		}
		tp.Unix = 1_000_000 + int64(i)
		tuples[i] = tp
	}
	return tuples
}

func TestBuildWithCityDisabledIgnoresCity(t *testing.T) {
	tuples := cityTuples(100)
	c := Build(tuples, Config{RequireState: true, MinSupport: 1, MaxAVPairs: 3, SkipApex: true})
	for i := range c.Groups {
		if c.Groups[i].Key.Has(City) {
			t.Fatalf("city condition leaked into %v without RequireCity", c.Groups[i].Key)
		}
	}
}

func TestBuildRequireCity(t *testing.T) {
	tuples := cityTuples(100)
	c := Build(tuples, Config{RequireCity: true, MinSupport: 1, MaxAVPairs: 3, SkipApex: true})
	if c.Len() == 0 {
		t.Fatal("no city-anchored groups")
	}
	for i := range c.Groups {
		if !c.Groups[i].Key.Has(City) {
			t.Fatalf("group %v lacks the mandatory city condition", c.Groups[i].Key)
		}
	}
	la, ok := c.Group(KeyAll.With(City, CityIndex("Los Angeles")))
	if !ok {
		t.Fatal("LA group missing")
	}
	if la.Support() != 50 || la.Mean() != 5 {
		t.Errorf("LA group = %+v", la.Agg)
	}
	sf, ok := c.Group(KeyAll.With(City, CityIndex("San Francisco")))
	if !ok || sf.Mean() != 2 {
		t.Errorf("SF group wrong: %v", sf)
	}
}

func TestPhraseWithCity(t *testing.T) {
	k := KeyAll.With(Gender, 0).
		With(State, StateIndex("CA")).
		With(City, CityIndex("Los Angeles"))
	if got := k.Phrase(); got != "male reviewers from Los Angeles, CA" {
		t.Errorf("Phrase = %q", got)
	}
	cityOnly := KeyAll.With(City, CityIndex("Chicago"))
	if got := cityOnly.Phrase(); got != "reviewers from Chicago" {
		t.Errorf("Phrase = %q", got)
	}
}

func TestParseKeyWithCity(t *testing.T) {
	k, err := ParseKey("state=CA,city=Los Angeles")
	if err != nil {
		t.Fatalf("ParseKey: %v", err)
	}
	if CityName(k[City]) != "Los Angeles" || StateCode(k[State]) != "CA" {
		t.Errorf("parsed %v", k)
	}
	back, err := ParseKey(k.Param())
	if err != nil || back != k {
		t.Errorf("Param round trip: %v, %v", back, err)
	}
	if _, err := ParseKey("city=Atlantis"); err == nil {
		t.Error("unknown city accepted")
	}
}

// TestTupleLayout pins a tuple at 24 bytes: every gather and every cached
// plan holds one per rating it covers.
func TestTupleLayout(t *testing.T) {
	if got := unsafe.Sizeof(Tuple{}); got != 24 {
		t.Errorf("Tuple is %d bytes, want 24", got)
	}
}
