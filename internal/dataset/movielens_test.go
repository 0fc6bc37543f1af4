package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
)

const usersSample = `1::F::1::10::48067
2::M::56::16::70072
3::M::25::15::55117
4::M::45::7::02460
5::M::25::20::55455-1234
`

const moviesSample = `1::Toy Story (1995)::Animation|Children's|Comedy
2::Jumanji (1995)::Adventure|Children's|Fantasy
3::Grumpier Old Men (1995)::Comedy|Romance
4::Untitled Project::
`

const ratingsSample = `1::1::5::978824268
1::2::3::978302109
2::1::4::978300760
3::3::4::978301968
`

func TestParseUsers(t *testing.T) {
	users, err := ParseUsers(strings.NewReader(usersSample))
	if err != nil {
		t.Fatalf("ParseUsers: %v", err)
	}
	if len(users) != 5 {
		t.Fatalf("parsed %d users, want 5", len(users))
	}
	u := users[0]
	if u.ID != 1 || u.Gender != model.Female || u.Age != model.AgeUnder18 ||
		u.Occupation != 10 || u.Zip != "48067" {
		t.Errorf("user 1 = %+v", u)
	}
	if u.State != "MI" {
		t.Errorf("user 1 state = %q, want MI (zip 48067)", u.State)
	}
	// ZIP+4 must be trimmed and still resolve.
	if users[4].Zip != "55455" || users[4].State != "MN" {
		t.Errorf("user 5 = %+v, want zip 55455 in MN", users[4])
	}
	if users[3].State != "MA" {
		t.Errorf("user 4 state = %q, want MA (zip 02460)", users[3].State)
	}
}

func TestParseUsersErrors(t *testing.T) {
	bad := []string{
		"1::F::1::10",            // missing field
		"x::F::1::10::48067",     // bad id
		"1::Q::1::10::48067",     // bad gender
		"1::F::17::10::48067",    // bad age code
		"1::F::1::99::48067",     // bad occupation
		"1::F::one::10::48067",   // non-numeric age
		"1::F::1::ninety::48067", // non-numeric occupation
		"not a movielens line at all",
	}
	for _, line := range bad {
		if _, err := ParseUsers(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ParseUsers(%q) should fail", line)
		}
	}
}

func TestParseMovies(t *testing.T) {
	items, err := ParseMovies(strings.NewReader(moviesSample))
	if err != nil {
		t.Fatalf("ParseMovies: %v", err)
	}
	if len(items) != 4 {
		t.Fatalf("parsed %d movies, want 4", len(items))
	}
	if items[0].Title != "Toy Story" || items[0].Year != 1995 {
		t.Errorf("movie 1 = %+v", items[0])
	}
	if len(items[0].Genres) != 3 || items[0].Genres[0] != "Animation" {
		t.Errorf("movie 1 genres = %v", items[0].Genres)
	}
	if items[3].Title != "Untitled Project" || items[3].Year != 0 || len(items[3].Genres) != 0 {
		t.Errorf("movie 4 = %+v", items[3])
	}
}

func TestSplitTitleYear(t *testing.T) {
	cases := []struct {
		in    string
		title string
		year  int
	}{
		{"Toy Story (1995)", "Toy Story", 1995},
		{"Seven (a.k.a. Se7en) (1995)", "Seven (a.k.a. Se7en)", 1995},
		{"No Year", "No Year", 0},
		{"Almost (19x5)", "Almost (19x5)", 0},
		{"(1999)", "", 1999},
	}
	for _, c := range cases {
		title, year := SplitTitleYear(c.in)
		if title != c.title || year != c.year {
			t.Errorf("SplitTitleYear(%q) = %q, %d; want %q, %d", c.in, title, year, c.title, c.year)
		}
	}
	if JoinTitleYear("Toy Story", 1995) != "Toy Story (1995)" {
		t.Error("JoinTitleYear with year")
	}
	if JoinTitleYear("No Year", 0) != "No Year" {
		t.Error("JoinTitleYear without year")
	}
}

func TestParseRatings(t *testing.T) {
	rs, err := ParseRatings(strings.NewReader(ratingsSample))
	if err != nil {
		t.Fatalf("ParseRatings: %v", err)
	}
	if len(rs) != 4 {
		t.Fatalf("parsed %d ratings, want 4", len(rs))
	}
	if rs[0] != (model.Rating{UserID: 1, ItemID: 1, Score: 5, Unix: 978824268}) {
		t.Errorf("rating 0 = %+v", rs[0])
	}
	for _, line := range []string{"1::1::5", "a::1::5::9"} {
		if _, err := ParseRatings(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ParseRatings(%q) should fail", line)
		}
	}
}

func TestParseCast(t *testing.T) {
	items, err := ParseMovies(strings.NewReader(moviesSample))
	if err != nil {
		t.Fatal(err)
	}
	cast := "1::John Lasseter::Tom Hanks|Tim Allen\n2::Joe Johnston::Robin Williams\n"
	if err := ParseCast(strings.NewReader(cast), items); err != nil {
		t.Fatalf("ParseCast: %v", err)
	}
	if len(items[0].Actors) != 2 || items[0].Actors[0] != "Tom Hanks" {
		t.Errorf("movie 1 actors = %v", items[0].Actors)
	}
	if len(items[0].Directors) != 1 || items[0].Directors[0] != "John Lasseter" {
		t.Errorf("movie 1 directors = %v", items[0].Directors)
	}
	if err := ParseCast(strings.NewReader("99::A::B\n"), items); err == nil {
		t.Error("cast for unknown movie should fail")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	d := generateSmall(t)
	var users, movies, ratings, cast bytes.Buffer
	if err := WriteUsers(&users, d.Users); err != nil {
		t.Fatal(err)
	}
	if err := WriteMovies(&movies, d.Items); err != nil {
		t.Fatal(err)
	}
	if err := WriteRatings(&ratings, d.Ratings); err != nil {
		t.Fatal(err)
	}
	if err := WriteCast(&cast, d.Items); err != nil {
		t.Fatal(err)
	}

	gotUsers, err := ParseUsers(bytes.NewReader(users.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gotMovies, err := ParseMovies(bytes.NewReader(movies.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ParseCast(bytes.NewReader(cast.Bytes()), gotMovies); err != nil {
		t.Fatal(err)
	}
	gotRatings, err := ParseRatings(bytes.NewReader(ratings.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if len(gotUsers) != len(d.Users) || len(gotMovies) != len(d.Items) || len(gotRatings) != len(d.Ratings) {
		t.Fatalf("round trip sizes: %d/%d users, %d/%d movies, %d/%d ratings",
			len(gotUsers), len(d.Users), len(gotMovies), len(d.Items), len(gotRatings), len(d.Ratings))
	}
	for i := range gotUsers {
		if gotUsers[i] != d.Users[i] {
			t.Fatalf("user %d round trip: %+v != %+v", i, gotUsers[i], d.Users[i])
		}
	}
	for i := range gotRatings {
		if gotRatings[i] != d.Ratings[i] {
			t.Fatalf("rating %d round trip: %+v != %+v", i, gotRatings[i], d.Ratings[i])
		}
	}
	for i := range gotMovies {
		a, b := gotMovies[i], d.Items[i]
		if a.ID != b.ID || a.Title != b.Title || a.Year != b.Year ||
			strings.Join(a.Genres, "|") != strings.Join(b.Genres, "|") ||
			strings.Join(a.Actors, "|") != strings.Join(b.Actors, "|") ||
			strings.Join(a.Directors, "|") != strings.Join(b.Directors, "|") {
			t.Fatalf("movie %d round trip: %+v != %+v", i, a, b)
		}
	}
}

func TestWriteLoadDir(t *testing.T) {
	d := generateSmall(t)
	dir := t.TempDir()
	if err := WriteDir(dir, d); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	for _, f := range []string{UsersFile, MoviesFile, RatingsFile, CastFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(got.Users) != len(d.Users) || len(got.Items) != len(d.Items) || len(got.Ratings) != len(d.Ratings) {
		t.Fatalf("LoadDir sizes differ: %d/%d/%d vs %d/%d/%d",
			len(got.Users), len(got.Items), len(got.Ratings),
			len(d.Users), len(d.Items), len(d.Ratings))
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("loaded dataset invalid: %v", err)
	}
}

func TestLoadDirWithoutCast(t *testing.T) {
	d := generateSmall(t)
	dir := t.TempDir()
	if err := WriteDir(dir, d); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, CastFile)); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir without cast: %v", err)
	}
	for i := range got.Items {
		if len(got.Items[i].Actors) != 0 {
			t.Fatal("actors present despite missing cast file")
		}
	}
}

func TestLoadDirMissing(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("LoadDir of missing directory should fail")
	}
}

func TestGenreIndex(t *testing.T) {
	for i, g := range Genres {
		if GenreIndex(g) != i {
			t.Errorf("GenreIndex(%q) = %d, want %d", g, GenreIndex(g), i)
		}
	}
	if GenreIndex("Telenovela") != -1 {
		t.Error("unknown genre should be -1")
	}
}

func TestParserHandlesLongLines(t *testing.T) {
	// A pathological title near the scanner's 1MB cap must not corrupt
	// parsing of subsequent lines.
	long := strings.Repeat("x", 500_000)
	input := "1::" + long + " (1999)::Drama\n2::Short (2000)::Comedy\n"
	items, err := ParseMovies(strings.NewReader(input))
	if err != nil {
		t.Fatalf("long line: %v", err)
	}
	if len(items) != 2 || items[1].Title != "Short" {
		t.Fatalf("parsed %d items", len(items))
	}
}

func TestParseRatingsEOFMidLine(t *testing.T) {
	// A truncated final line (no newline, missing fields) must error, not
	// silently drop data.
	if _, err := ParseRatings(strings.NewReader("1::1::5::978300000\n2::2::4")); err == nil {
		t.Error("truncated final rating accepted")
	}
}

func TestGenerateScalesDown(t *testing.T) {
	// The generator must stay correct at the smallest viable scale.
	cfg := SmallGenConfig()
	cfg.Users, cfg.Movies, cfg.Ratings = 30, len(PlantedMovies), 200
	d, err := Generate(cfg)
	if err != nil {
		t.Fatalf("tiny generate: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("tiny dataset invalid: %v", err)
	}
	if len(d.Items) != len(PlantedMovies) {
		t.Errorf("movies = %d", len(d.Items))
	}
}

// TestParseRefusesValuesTooWide: an ID outside [1, model.MaxID] or a
// score int8 cannot hold fails the parse with its line number, before
// anything narrows it: user 4294967297 would otherwise become user 1,
// and score 261 a valid 5.
func TestParseRefusesValuesTooWide(t *testing.T) {
	for _, c := range []struct {
		name, in, want string
		parse          func(string) error
	}{
		{"user id", "1::F::1::10::48067\n4294967297::M::25::15::55117\n", "users line 2: user_id 4294967297",
			func(s string) error { _, err := ParseUsers(strings.NewReader(s)); return err }},
		{"zero user id", "0::M::25::15::55117\n", "users line 1: user_id 0",
			func(s string) error { _, err := ParseUsers(strings.NewReader(s)); return err }},
		{"movie id", "1::Toy Story (1995)::Animation\n\n2147483648::Heat (1995)::Action\n", "movies line 3: item_id 2147483648",
			func(s string) error { _, err := ParseMovies(strings.NewReader(s)); return err }},
		{"rating user", ratingsSample + "4294967297::1::5::978300760\n", "ratings line 5: user_id 4294967297",
			func(s string) error { _, err := ParseRatings(strings.NewReader(s)); return err }},
		{"rating item", "1::4294967298::5::978300760\n", "ratings line 1: item_id 4294967298",
			func(s string) error { _, err := ParseRatings(strings.NewReader(s)); return err }},
		{"rating score", "1::1::261::978300760\n", "ratings line 1: score 261",
			func(s string) error { _, err := ParseRatings(strings.NewReader(s)); return err }},
	} {
		if err := c.parse(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}
