// Package dataset provides the data substrate for MapRat: a reader/writer
// for the MovieLens 1M file format the paper demos on, and a deterministic
// synthetic generator that emits the same schema at the same scale with
// planted rating structure, standing in for the real MovieLens+IMDB data
// (see Planted in generate.go).
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cube"
	"repro/internal/model"
)

// File names inside a MovieLens 1M directory. Cast.dat is our IMDB-style
// enrichment side file (the paper integrates IMDB for actors/directors).
const (
	UsersFile   = "users.dat"
	MoviesFile  = "movies.dat"
	RatingsFile = "ratings.dat"
	CastFile    = "cast.dat"
)

const mlSep = "::"

// ParseUsers reads MovieLens `UserID::Gender::Age::Occupation::Zip-code`
// lines and resolves each user's state and city from the zip code. A
// user ID outside [1, model.MaxID] fails with its line number.
func ParseUsers(r io.Reader) ([]model.User, error) {
	var users []model.User
	sc := newLineScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		f := strings.Split(line, mlSep)
		if len(f) != 5 {
			return nil, fmt.Errorf("dataset: users line %d: want 5 fields, got %d", sc.lineNo, len(f))
		}
		id, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: users line %d: bad id %q", sc.lineNo, f[0])
		}
		if err := model.CheckID("user_id", id); err != nil {
			return nil, fmt.Errorf("dataset: users line %d: %w", sc.lineNo, err)
		}
		gender, err := model.ParseGender(f[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: users line %d: %w", sc.lineNo, err)
		}
		ageCode, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("dataset: users line %d: bad age %q", sc.lineNo, f[2])
		}
		age, err := model.ParseAgeCode(ageCode)
		if err != nil {
			return nil, fmt.Errorf("dataset: users line %d: %w", sc.lineNo, err)
		}
		occCode, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("dataset: users line %d: bad occupation %q", sc.lineNo, f[3])
		}
		occ, err := model.ParseOccupation(occCode)
		if err != nil {
			return nil, fmt.Errorf("dataset: users line %d: %w", sc.lineNo, err)
		}
		u := model.User{ID: id, Gender: gender, Age: age, Occupation: occ, Zip: zipBase(f[4])}
		cube.ResolveUser(&u)
		users = append(users, u)
	}
	return users, sc.Err()
}

// zipBase strips ZIP+4 suffixes ("98107-2117" -> "98107"), which appear in
// the real MovieLens files.
func zipBase(zip string) string {
	if i := strings.IndexByte(zip, '-'); i >= 0 {
		return zip[:i]
	}
	return zip
}

// ParseMovies reads MovieLens `MovieID::Title (Year)::Genre|Genre` lines.
// A movie ID outside [1, model.MaxID] fails with its line number.
func ParseMovies(r io.Reader) ([]model.Item, error) {
	var items []model.Item
	sc := newLineScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		f := strings.Split(line, mlSep)
		if len(f) != 3 {
			return nil, fmt.Errorf("dataset: movies line %d: want 3 fields, got %d", sc.lineNo, len(f))
		}
		id, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: movies line %d: bad id %q", sc.lineNo, f[0])
		}
		if err := model.CheckID("item_id", id); err != nil {
			return nil, fmt.Errorf("dataset: movies line %d: %w", sc.lineNo, err)
		}
		title, year := SplitTitleYear(f[1])
		var genres []string
		if f[2] != "" {
			genres = strings.Split(f[2], "|")
		}
		items = append(items, model.Item{ID: id, Title: title, Year: year, Genres: genres})
	}
	return items, sc.Err()
}

// SplitTitleYear splits "Toy Story (1995)" into ("Toy Story", 1995). Titles
// without a trailing year return year 0.
func SplitTitleYear(s string) (string, int) {
	s = strings.TrimSpace(s)
	if n := len(s); n >= 6 && s[n-1] == ')' && s[n-6] == '(' {
		if y, err := strconv.Atoi(s[n-5 : n-1]); err == nil {
			return strings.TrimSpace(s[:n-6]), y
		}
	}
	return s, 0
}

// JoinTitleYear is the inverse of SplitTitleYear.
func JoinTitleYear(title string, year int) string {
	if year == 0 {
		return title
	}
	return fmt.Sprintf("%s (%d)", title, year)
}

// ParseRatings reads MovieLens `UserID::MovieID::Rating::Timestamp` lines.
// It checks their syntax and that each value fits its Rating field
// (model.NewRating: IDs in [1, model.MaxID], a score int8 holds), and
// fails with the line number otherwise; store.Join checks each rating's
// values and references when the dataset is opened or packed.
func ParseRatings(r io.Reader) ([]model.Rating, error) {
	var ratings []model.Rating
	sc := newLineScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		f := strings.Split(line, mlSep)
		if len(f) != 4 {
			return nil, fmt.Errorf("dataset: ratings line %d: want 4 fields, got %d", sc.lineNo, len(f))
		}
		var vals [3]int
		for i := 0; i < 3; i++ {
			v, err := strconv.Atoi(f[i])
			if err != nil {
				return nil, fmt.Errorf("dataset: ratings line %d: bad field %q", sc.lineNo, f[i])
			}
			vals[i] = v
		}
		ts, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: ratings line %d: bad timestamp %q", sc.lineNo, f[3])
		}
		r, err := model.NewRating(vals[0], vals[1], vals[2], ts)
		if err != nil {
			return nil, fmt.Errorf("dataset: ratings line %d: %w", sc.lineNo, err)
		}
		ratings = append(ratings, r)
	}
	return ratings, sc.Err()
}

// ParseCast reads our IMDB-enrichment side file:
// `MovieID::Director|Director::Actor|Actor|...`. It mutates items in place.
func ParseCast(r io.Reader, items []model.Item) error {
	byID := make(map[int]*model.Item, len(items))
	for i := range items {
		byID[items[i].ID] = &items[i]
	}
	sc := newLineScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		f := strings.Split(line, mlSep)
		if len(f) != 3 {
			return fmt.Errorf("dataset: cast line %d: want 3 fields, got %d", sc.lineNo, len(f))
		}
		id, err := strconv.Atoi(f[0])
		if err != nil {
			return fmt.Errorf("dataset: cast line %d: bad id %q", sc.lineNo, f[0])
		}
		it := byID[id]
		if it == nil {
			return fmt.Errorf("dataset: cast line %d: unknown movie %d", sc.lineNo, id)
		}
		if f[1] != "" {
			it.Directors = strings.Split(f[1], "|")
		}
		if f[2] != "" {
			it.Actors = strings.Split(f[2], "|")
		}
	}
	return sc.Err()
}

// LoadDir loads a complete MovieLens-1M-format directory. The cast file is
// optional (the real MovieLens distribution lacks it). Its users and
// items must validate (model.Dataset.Validate). Its ratings are checked
// once, where every source's are: by store.Join, which maprat.Open and
// the snapshot writer run, so a rating of a user or item the directory
// does not define, or with a score or timestamp out of range, fails the
// open or the pack as it fails an append.
func LoadDir(dir string) (*model.Dataset, error) {
	users, err := loadParsed(filepath.Join(dir, UsersFile), ParseUsers)
	if err != nil {
		return nil, err
	}
	items, err := loadParsed(filepath.Join(dir, MoviesFile), ParseMovies)
	if err != nil {
		return nil, err
	}
	ratings, err := loadParsed(filepath.Join(dir, RatingsFile), ParseRatings)
	if err != nil {
		return nil, err
	}
	castPath := filepath.Join(dir, CastFile)
	if f, err := os.Open(castPath); err == nil {
		perr := ParseCast(bufio.NewReader(f), items)
		f.Close()
		if perr != nil {
			return nil, perr
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	ds, err := model.NewDataset(users, items, ratings)
	if err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return ds, nil
}

func loadParsed[T any](path string, parse func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out, err := parse(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// WriteDir writes a dataset in MovieLens 1M format (plus cast.dat) so the
// generator's output can feed any MovieLens-compatible tool.
func WriteDir(dir string, d *model.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writers := []struct {
		name  string
		write func(w io.Writer) error
	}{
		{UsersFile, func(w io.Writer) error { return WriteUsers(w, d.Users) }},
		{MoviesFile, func(w io.Writer) error { return WriteMovies(w, d.Items) }},
		{RatingsFile, func(w io.Writer) error { return WriteRatings(w, d.Ratings) }},
		{CastFile, func(w io.Writer) error { return WriteCast(w, d.Items) }},
	}
	for _, spec := range writers {
		if err := writeFile(filepath.Join(dir, spec.name), spec.write); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteUsers emits users.dat lines.
func WriteUsers(w io.Writer, users []model.User) error {
	for i := range users {
		u := &users[i]
		if _, err := fmt.Fprintf(w, "%d::%s::%d::%d::%s\n",
			u.ID, u.Gender, u.Age.Code(), u.Occupation, u.Zip); err != nil {
			return err
		}
	}
	return nil
}

// WriteMovies emits movies.dat lines.
func WriteMovies(w io.Writer, items []model.Item) error {
	for i := range items {
		it := &items[i]
		if _, err := fmt.Fprintf(w, "%d::%s::%s\n",
			it.ID, JoinTitleYear(it.Title, it.Year), strings.Join(it.Genres, "|")); err != nil {
			return err
		}
	}
	return nil
}

// WriteRatings emits ratings.dat lines.
func WriteRatings(w io.Writer, ratings []model.Rating) error {
	for _, r := range ratings {
		if _, err := fmt.Fprintf(w, "%d::%d::%d::%d\n", r.UserID, r.ItemID, r.Score, r.Unix); err != nil {
			return err
		}
	}
	return nil
}

// WriteCast emits cast.dat lines for items that have cast metadata.
func WriteCast(w io.Writer, items []model.Item) error {
	for i := range items {
		it := &items[i]
		if len(it.Directors) == 0 && len(it.Actors) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%d::%s::%s\n",
			it.ID, strings.Join(it.Directors, "|"), strings.Join(it.Actors, "|")); err != nil {
			return err
		}
	}
	return nil
}

// lineScanner wraps bufio.Scanner with 1-based line numbers for error
// reporting and a buffer large enough for any MovieLens line.
type lineScanner struct {
	*bufio.Scanner
	lineNo int
}

func newLineScanner(r io.Reader) *lineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &lineScanner{Scanner: sc}
}

func (s *lineScanner) Scan() bool {
	ok := s.Scanner.Scan()
	if ok {
		s.lineNo++
	}
	return ok
}

// Genres is the MovieLens 1M genre vocabulary.
var Genres = []string{
	"Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
	"Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
	"Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
}

// GenreIndex returns a genre's position in the vocabulary, or -1.
func GenreIndex(genre string) int {
	i := sort.SearchStrings(sortedGenres, genre)
	if i < len(sortedGenres) && sortedGenres[i] == genre {
		return genreRank[genre]
	}
	return -1
}

var (
	sortedGenres []string
	genreRank    = map[string]int{}
)

func init() {
	sortedGenres = append(sortedGenres, Genres...)
	sort.Strings(sortedGenres)
	for i, g := range Genres {
		genreRank[g] = i
	}
}
