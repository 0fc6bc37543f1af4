package query

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/store"
)

var (
	stOnce sync.Once
	stMemo *store.Store
)

func testStore(t testing.TB) *store.Store {
	t.Helper()
	stOnce.Do(func() {
		ds, err := dataset.Generate(dataset.SmallGenConfig())
		if err != nil {
			panic(err)
		}
		pj, err := store.Join(ds)
		if err != nil {
			panic(err)
		}
		stMemo, err = store.Open(ds, pj, store.Options{})
		if err != nil {
			panic(err)
		}
	})
	return stMemo
}

func TestParseSimple(t *testing.T) {
	q, err := Parse(`movie:"Toy Story"`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Query{Op: And, Preds: []Pred{{Field: Movie, Value: "Toy Story"}}}
	if !reflect.DeepEqual(q, want) {
		t.Errorf("Parse = %+v, want %+v", q, want)
	}
}

func TestParseConjunction(t *testing.T) {
	q, err := Parse(`director:"Steven Spielberg" AND genre:Thriller`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Op != And || len(q.Preds) != 2 {
		t.Fatalf("Parse = %+v", q)
	}
	if q.Preds[0] != (Pred{Director, "Steven Spielberg"}) {
		t.Errorf("pred 0 = %+v", q.Preds[0])
	}
	if q.Preds[1] != (Pred{Genre, "Thriller"}) {
		t.Errorf("pred 1 = %+v", q.Preds[1])
	}
}

func TestParseDisjunction(t *testing.T) {
	q, err := Parse(`movie:"The Two Towers" or movie:"Jaws" OR actor:"Tom Hanks"`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Op != Or || len(q.Preds) != 3 {
		t.Fatalf("Parse = %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		`movie:"Toy Story" AND`,
		`AND movie:Jaws`,
		`movie:"A" AND movie:"B" OR movie:"C"`, // mixed operators
		`movie:"unterminated`,
		`:novalue`,
		`movie:`,
		`badfield:value`,
		`movie:"A" movie:"B"`, // missing operator
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		`movie:"Toy Story"`,
		`actor:"Tom Hanks" AND genre:Thriller`,
		`genre:Action OR genre:Western`,
	} {
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse(%q): %v", q.String(), err)
		}
		if q.Op != q2.Op || !reflect.DeepEqual(q.Preds, q2.Preds) {
			t.Errorf("round trip: %q -> %q -> %+v", s, q.String(), q2)
		}
	}
}

func TestQueryStringIncludesWindow(t *testing.T) {
	q := Query{Preds: []Pred{{Movie, "Jaws"}}, Window: store.TimeWindow{From: 5, To: 9}}
	if got := q.String(); got != "movie:Jaws @[5,9]" {
		t.Errorf("String = %q", got)
	}
}

func TestResolveExactTitle(t *testing.T) {
	s := testStore(t)
	q, _ := Parse(`movie:"Toy Story"`)
	ids, err := Resolve(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("Toy Story resolved to %d items", len(ids))
	}
	if s.Dataset().ItemByID(ids[0]).Title != "Toy Story" {
		t.Errorf("wrong item %v", ids[0])
	}
}

func TestResolveMovieFallsBackToTerms(t *testing.T) {
	s := testStore(t)
	// Not an exact title; term matching should find the three LOTR films.
	q, _ := Parse(`movie:"Lord of the Rings"`)
	ids, err := Resolve(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("LOTR term fallback matched %d items, want 3", len(ids))
	}
}

func TestResolveConjunction(t *testing.T) {
	s := testStore(t)
	q, _ := Parse(`director:"Steven Spielberg" AND genre:Thriller`)
	ids, err := Resolve(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("Spielberg thrillers missing")
	}
	for _, id := range ids {
		it := s.Dataset().ItemByID(id)
		hasThriller, hasSpielberg := false, false
		for _, g := range it.Genres {
			if g == "Thriller" {
				hasThriller = true
			}
		}
		for _, d := range it.Directors {
			if d == "Steven Spielberg" {
				hasSpielberg = true
			}
		}
		if !hasThriller || !hasSpielberg {
			t.Errorf("item %q fails the conjunction", it.Title)
		}
	}
}

func TestResolveDisjunction(t *testing.T) {
	s := testStore(t)
	qa, _ := Parse(`actor:"Tom Hanks"`)
	qd, _ := Parse(`director:"Woody Allen"`)
	both, _ := Parse(`actor:"Tom Hanks" OR director:"Woody Allen"`)
	a, _ := Resolve(s, qa)
	d, _ := Resolve(s, qd)
	u, err := Resolve(s, both)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, id := range append(a, d...) {
		seen[id] = true
	}
	if len(u) != len(seen) {
		t.Errorf("union size %d, want %d", len(u), len(seen))
	}
	for _, id := range u {
		if !seen[id] {
			t.Errorf("item %d not in either side", id)
		}
	}
	for i := 1; i < len(u); i++ {
		if u[i-1] >= u[i] {
			t.Fatal("Resolve result not sorted")
		}
	}
}

func TestResolveEmptyIntersection(t *testing.T) {
	s := testStore(t)
	q, _ := Parse(`director:"Woody Allen" AND genre:Western`)
	ids, err := Resolve(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("Woody Allen westerns: %v", ids)
	}
}

func TestResolveNoPreds(t *testing.T) {
	s := testStore(t)
	if _, err := Resolve(s, Query{}); err == nil {
		t.Error("Resolve with no predicates should fail")
	}
}

func TestParseFieldRoundTrip(t *testing.T) {
	for _, f := range []Field{Movie, Title, Actor, Director, Genre} {
		got, err := ParseField(f.String())
		if err != nil || got != f {
			t.Errorf("ParseField(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseField("studio"); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestParseUnicodeValues(t *testing.T) {
	q, err := Parse(`movie:"Léon: The Professional" AND genre:Drama`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Preds[0].Value != "Léon: The Professional" {
		t.Errorf("unicode value = %q", q.Preds[0].Value)
	}
}

func TestParseWhitespaceHandling(t *testing.T) {
	q, err := Parse("  movie:Jaws \t AND \n genre:Horror  ")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Preds) != 2 || q.Op != And {
		t.Errorf("parsed %+v", q)
	}
}

func TestParseCaseInsensitiveOperators(t *testing.T) {
	for _, s := range []string{"movie:A and movie:B", "movie:A AND movie:B", "movie:A And movie:B"} {
		q, err := Parse(s)
		if err != nil || q.Op != And || len(q.Preds) != 2 {
			t.Errorf("Parse(%q) = %+v, %v", s, q, err)
		}
	}
}

func TestResolveWindowPreserved(t *testing.T) {
	s := testStore(t)
	q, _ := Parse(`movie:"Toy Story"`)
	lo, hi := s.TimeRange()
	q.Window = store.TimeWindow{From: lo, To: lo + (hi-lo)/2}
	ids, err := Resolve(s, q)
	if err != nil || len(ids) != 1 {
		t.Fatalf("Resolve: %v (%d)", err, len(ids))
	}
	// Resolve does not filter by time — gathering does.
	tuples := s.TuplesForItems(ids, q.Window)
	all := s.TuplesForItems(ids, store.TimeWindow{})
	if len(tuples) >= len(all) {
		t.Errorf("window did not restrict: %d vs %d", len(tuples), len(all))
	}
}
