package model

import (
	"testing"
	"testing/quick"
)

func TestGenderRoundTrip(t *testing.T) {
	for g := Male; int(g) < NumGenders; g++ {
		parsed, err := ParseGender(g.String())
		if err != nil {
			t.Fatalf("ParseGender(%q): %v", g.String(), err)
		}
		if parsed != g {
			t.Errorf("round trip %v -> %q -> %v", g, g.String(), parsed)
		}
	}
}

func TestParseGenderLowercase(t *testing.T) {
	if g, err := ParseGender("f"); err != nil || g != Female {
		t.Errorf("ParseGender(\"f\") = %v, %v; want Female, nil", g, err)
	}
	if _, err := ParseGender("X"); err == nil {
		t.Error("ParseGender(\"X\") should fail")
	}
}

func TestAgeBucketRoundTrip(t *testing.T) {
	for a := AgeUnder18; int(a) < NumAgeBuckets; a++ {
		parsed, err := ParseAgeCode(a.Code())
		if err != nil {
			t.Fatalf("ParseAgeCode(%d): %v", a.Code(), err)
		}
		if parsed != a {
			t.Errorf("round trip %v -> %d -> %v", a, a.Code(), parsed)
		}
	}
	if _, err := ParseAgeCode(99); err == nil {
		t.Error("ParseAgeCode(99) should fail")
	}
}

func TestOccupationRoundTrip(t *testing.T) {
	for code := 0; code < NumOccupations; code++ {
		o, err := ParseOccupation(code)
		if err != nil {
			t.Fatalf("ParseOccupation(%d): %v", code, err)
		}
		back, ok := OccupationByLabel(o.Label())
		if !ok || back != o {
			t.Errorf("label round trip for occupation %d (%q) failed", code, o.Label())
		}
	}
	if _, err := ParseOccupation(NumOccupations); err == nil {
		t.Error("ParseOccupation out of range should fail")
	}
	if _, err := ParseOccupation(-1); err == nil {
		t.Error("ParseOccupation(-1) should fail")
	}
}

func TestUserValidate(t *testing.T) {
	valid := User{ID: 1, Gender: Female, Age: Age18to24, Occupation: 4, Zip: "94110"}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid user rejected: %v", err)
	}
	cases := []User{
		{ID: 0, Zip: "94110"},
		{ID: 2, Gender: Gender(9), Zip: "94110"},
		{ID: 3, Age: AgeBucket(99), Zip: "94110"},
		{ID: 4, Occupation: Occupation(99), Zip: "94110"},
		{ID: 5},
	}
	for i, u := range cases {
		if err := u.Validate(); err == nil {
			t.Errorf("case %d: invalid user %+v accepted", i, u)
		}
	}
}

func TestRatingValidate(t *testing.T) {
	ok := Rating{UserID: 1, ItemID: 2, Score: 3, Unix: 0}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid rating rejected: %v", err)
	}
	// The first second of MinYear and the last of MaxYear are valid
	// timestamps; the seconds outside them are not.
	for _, unix := range []int64{-62135596800, 253402300799} {
		r := Rating{UserID: 1, ItemID: 2, Score: 3, Unix: unix}
		if err := r.Validate(); err != nil {
			t.Fatalf("rating at Unix %d rejected: %v", unix, err)
		}
	}
	bad := []Rating{
		{UserID: 0, ItemID: 1, Score: 3},
		{UserID: 1, ItemID: 0, Score: 3},
		{UserID: 1, ItemID: 1, Score: 0},
		{UserID: 1, ItemID: 1, Score: 6},
		{UserID: 1, ItemID: 1, Score: 3, Unix: 253402300800},
		{UserID: 1, ItemID: 1, Score: 3, Unix: -62135596801},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid rating %+v accepted", i, r)
		}
	}
}

func TestRatingScoreBoundsProperty(t *testing.T) {
	f := func(score int8) bool {
		r := Rating{UserID: 1, ItemID: 1, Score: int(score)}
		err := r.Validate()
		inRange := int(score) >= MinScore && int(score) <= MaxScore
		return (err == nil) == inRange
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	users := []User{
		{ID: 1, Gender: Male, Age: Age25to34, Occupation: 12, Zip: "94110"},
		{ID: 2, Gender: Female, Age: AgeUnder18, Occupation: 10, Zip: "10001"},
	}
	items := []Item{
		{ID: 1, Title: "Toy Story", Year: 1995, Genres: []string{"Animation", "Children's", "Comedy"}},
		{ID: 2, Title: "Heat", Year: 1995, Genres: []string{"Action", "Crime", "Thriller"}},
	}
	ratings := []Rating{
		{UserID: 1, ItemID: 1, Score: 5, Unix: 978300000},
		{UserID: 2, ItemID: 1, Score: 4, Unix: 978300100},
		{UserID: 1, ItemID: 2, Score: 3, Unix: 978300200},
	}
	d, err := NewDataset(users, items, ratings)
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	return d
}

func TestDatasetLookups(t *testing.T) {
	d := testDataset(t)
	if u := d.UserByID(2); u == nil || u.Gender != Female {
		t.Errorf("UserByID(2) = %+v", u)
	}
	if u := d.UserByID(99); u != nil {
		t.Errorf("UserByID(99) should be nil, got %+v", u)
	}
	if it := d.ItemByID(1); it == nil || it.Title != "Toy Story" {
		t.Errorf("ItemByID(1) = %+v", it)
	}
	if it := d.ItemByID(42); it != nil {
		t.Errorf("ItemByID(42) should be nil, got %+v", it)
	}
}

func TestDatasetValidate(t *testing.T) {
	d := testDataset(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	d.Ratings = append(d.Ratings, Rating{UserID: 99, ItemID: 1, Score: 3})
	if err := d.Validate(); err == nil {
		t.Error("dangling user reference accepted")
	}
	d.Ratings[len(d.Ratings)-1] = Rating{UserID: 1, ItemID: 99, Score: 3}
	if err := d.Validate(); err == nil {
		t.Error("dangling item reference accepted")
	}
}

func TestDatasetDuplicateIDs(t *testing.T) {
	users := []User{{ID: 1, Zip: "1"}, {ID: 1, Zip: "2"}}
	if _, err := NewDataset(users, nil, nil); err == nil {
		t.Error("duplicate user id accepted")
	}
	items := []Item{{ID: 7, Title: "A"}, {ID: 7, Title: "B"}}
	if _, err := NewDataset(nil, items, nil); err == nil {
		t.Error("duplicate item id accepted")
	}
}

func TestDatasetStats(t *testing.T) {
	d := testDataset(t)
	s := d.Stats()
	if s.Users != 2 || s.Items != 2 || s.Ratings != 3 {
		t.Errorf("counts = %+v", s)
	}
	wantMean := (5.0 + 4.0 + 3.0) / 3.0
	if s.MeanScore != wantMean {
		t.Errorf("MeanScore = %f, want %f", s.MeanScore, wantMean)
	}
	if s.MinUnix != 978300000 || s.MaxUnix != 978300200 {
		t.Errorf("time range = [%d,%d]", s.MinUnix, s.MaxUnix)
	}
	if s.ScoreCount[5] != 1 || s.ScoreCount[4] != 1 || s.ScoreCount[3] != 1 {
		t.Errorf("score histogram = %v", s.ScoreCount)
	}
}

func TestStatsEmptyDataset(t *testing.T) {
	d := &Dataset{}
	if err := d.Reindex(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Ratings != 0 || s.MeanScore != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}
