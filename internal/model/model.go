// Package model defines the data model of a collaborative rating site as
// used by MapRat (VLDB 2012): a site D = ⟨I, U, R⟩ of items, reviewers and
// ratings, where each rating is a triple ⟨i, u, s⟩ with an integer score
// s ∈ [1,5], reviewers carry the MovieLens demographic attributes
// (age, gender, occupation, zip code) and items carry title, genres and the
// IMDB-style enrichment attributes (actors, directors).
package model

import (
	"fmt"
	"math"
	"time"
)

// MinScore and MaxScore bound the integer rating scale s ∈ [1,5] from §2.1
// of the paper.
const (
	MinScore = 1
	MaxScore = 5
)

// MinYear and MaxYear are the first and last calendar years (UTC) a
// rating may be dated in and a request's from/to may name: the years an
// RFC 3339 timestamp can print. They bound the evolution sweep, which
// has one window per year.
const (
	MinYear = 1
	MaxYear = 9999
)

// firstUnix and lastUnix are the first second of MinYear and the last of
// MaxYear, the range of timestamps a rating may carry.
var (
	firstUnix = time.Date(MinYear, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	lastUnix  = time.Date(MaxYear+1, 1, 1, 0, 0, 0, 0, time.UTC).Unix() - 1
)

// Gender is a reviewer's gender as recorded by MovieLens.
type Gender uint8

// Gender values. MovieLens records exactly M and F.
const (
	Male Gender = iota
	Female
	NumGenders int = iota
)

// String returns the single-letter MovieLens code for g.
func (g Gender) String() string {
	switch g {
	case Male:
		return "M"
	case Female:
		return "F"
	}
	return fmt.Sprintf("Gender(%d)", uint8(g))
}

// Label returns a human-readable label used in group descriptions.
func (g Gender) Label() string {
	switch g {
	case Male:
		return "male"
	case Female:
		return "female"
	}
	return g.String()
}

// ParseGender converts a MovieLens gender code ("M" or "F") to a Gender.
func ParseGender(s string) (Gender, error) {
	switch s {
	case "M", "m":
		return Male, nil
	case "F", "f":
		return Female, nil
	}
	return 0, fmt.Errorf("model: unknown gender code %q", s)
}

// AgeBucket is a MovieLens age bucket. MovieLens 1M encodes reviewer age as
// one of seven bucket codes (1, 18, 25, 35, 45, 50, 56); we store the dense
// bucket index 0..6.
type AgeBucket uint8

// Age buckets in MovieLens 1M order.
const (
	AgeUnder18    AgeBucket = iota // code 1:  "Under 18"
	Age18to24                      // code 18: "18-24"
	Age25to34                      // code 25: "25-34"
	Age35to44                      // code 35: "35-44"
	Age45to49                      // code 45: "45-49"
	Age50to55                      // code 50: "50-55"
	Age56Plus                      // code 56: "56+"
	NumAgeBuckets int       = iota
)

var ageCodes = [NumAgeBuckets]int{1, 18, 25, 35, 45, 50, 56}

var ageLabels = [NumAgeBuckets]string{
	"under 18", "18-24", "25-34", "35-44", "45-49", "50-55", "56+",
}

// Code returns the MovieLens numeric code for the bucket (1, 18, 25, ...).
func (a AgeBucket) Code() int {
	if int(a) < NumAgeBuckets {
		return ageCodes[a]
	}
	return -1
}

// Label returns the human-readable age range for the bucket.
func (a AgeBucket) Label() string {
	if int(a) < NumAgeBuckets {
		return ageLabels[a]
	}
	return fmt.Sprintf("AgeBucket(%d)", uint8(a))
}

// String returns the bucket label.
func (a AgeBucket) String() string { return a.Label() }

// ParseAgeCode converts a MovieLens age code (1, 18, 25, 35, 45, 50, 56) to
// its AgeBucket.
func ParseAgeCode(code int) (AgeBucket, error) {
	for i, c := range ageCodes {
		if c == code {
			return AgeBucket(i), nil
		}
	}
	return 0, fmt.Errorf("model: unknown MovieLens age code %d", code)
}

// Occupation is a MovieLens occupation code (0..20).
type Occupation uint8

// NumOccupations is the size of the MovieLens 1M occupation vocabulary.
const NumOccupations = 21

var occupationLabels = [NumOccupations]string{
	"other", "academic/educator", "artist", "clerical/admin",
	"college/grad student", "customer service", "doctor/health care",
	"executive/managerial", "farmer", "homemaker", "K-12 student", "lawyer",
	"programmer", "retired", "sales/marketing", "scientist", "self-employed",
	"technician/engineer", "tradesman/craftsman", "unemployed", "writer",
}

// Label returns the MovieLens occupation label.
func (o Occupation) Label() string {
	if int(o) < NumOccupations {
		return occupationLabels[o]
	}
	return fmt.Sprintf("Occupation(%d)", uint8(o))
}

// String returns the occupation label.
func (o Occupation) String() string { return o.Label() }

// ParseOccupation validates a MovieLens occupation code.
func ParseOccupation(code int) (Occupation, error) {
	if code < 0 || code >= NumOccupations {
		return 0, fmt.Errorf("model: occupation code %d out of range [0,%d]", code, NumOccupations-1)
	}
	return Occupation(code), nil
}

// OccupationByLabel resolves a label such as "programmer" to its code.
func OccupationByLabel(label string) (Occupation, bool) {
	for i, l := range occupationLabels {
		if l == label {
			return Occupation(i), true
		}
	}
	return 0, false
}

// User is a reviewer: a member of U with the MovieLens demographic
// attribute set UA = {gender, age, occupation, zipcode}. State and City are
// derived from the zip code at load time (see internal/geo) because the
// paper's groups anchor on geography.
type User struct {
	ID         int
	Gender     Gender
	Age        AgeBucket
	Occupation Occupation
	Zip        string
	State      string // two-letter state code derived from Zip ("" if unknown)
	City       string // city derived from Zip ("" if unknown)
}

// Validate reports the first schema violation in u, if any.
func (u *User) Validate() error {
	if u.ID <= 0 {
		return fmt.Errorf("model: user id %d must be positive", u.ID)
	}
	if int(u.Gender) >= NumGenders {
		return fmt.Errorf("model: user %d has invalid gender %d", u.ID, u.Gender)
	}
	if int(u.Age) >= NumAgeBuckets {
		return fmt.Errorf("model: user %d has invalid age bucket %d", u.ID, u.Age)
	}
	if int(u.Occupation) >= NumOccupations {
		return fmt.Errorf("model: user %d has invalid occupation %d", u.ID, u.Occupation)
	}
	if u.Zip == "" {
		return fmt.Errorf("model: user %d has empty zip code", u.ID)
	}
	return nil
}

// Item is a ratable item: a member of I with attribute set IA. For movies
// the attributes are title, production year, genres and the IMDB-style
// enrichment (actors, directors) described in §3 of the paper.
type Item struct {
	ID        int
	Title     string // title without the year suffix, e.g. "Toy Story"
	Year      int
	Genres    []string
	Actors    []string
	Directors []string
}

// Validate reports the first schema violation in it, if any.
func (it *Item) Validate() error {
	if it.ID <= 0 {
		return fmt.Errorf("model: item id %d must be positive", it.ID)
	}
	if it.Title == "" {
		return fmt.Errorf("model: item %d has empty title", it.ID)
	}
	return nil
}

// MaxID is the largest user or item ID. A Rating holds its user's ID in
// 32 bits and a snapshot stores both IDs in 32 bits, so wherever an ID
// is narrowed (NewRating, the text parsers, the snapshot writer), one
// outside [1, MaxID] is refused instead of becoming another ID.
const MaxID = math.MaxInt32

// Rating is one rating triple ⟨i, u, s⟩ plus the timestamp MovieLens records
// with every rating; the timestamp drives the paper's time-slider dimension.
//
// The log holds one Rating per rating, so its layout is the resident
// size of the whole log: 24 bytes, Unix first, then the 32-bit user and
// the 8-bit score in one word, then the item. A gather reads only Unix
// and Score, which share the first 16 bytes. ItemID stays an int; the
// text parsers, NewRating and the snapshot writer refuse an ID above
// MaxID, so the snapshot's 32-bit item column holds it exactly. Values
// read at full width become a Rating through NewRating, which refuses
// what the narrow fields cannot hold.
type Rating struct {
	Unix   int64 // seconds since the Unix epoch
	UserID int32
	Score  int8 // integer score in [MinScore, MaxScore]
	ItemID int
}

// RangeError reports a value refused before it was narrowed into a
// Rating field (or a snapshot's 32-bit ID column): Field names it as the
// append API and the text formats do.
type RangeError struct {
	Field    string // "user_id", "item_id" or "score"
	Value    int64
	Min, Max int64
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("%s %d outside [%d,%d]", e.Field, e.Value, e.Min, e.Max)
}

// CheckID returns a *RangeError naming field when id lies outside
// [1, MaxID].
func CheckID(field string, id int) error {
	if id < 1 || id > MaxID {
		return &RangeError{Field: field, Value: int64(id), Min: 1, Max: MaxID}
	}
	return nil
}

// NewRating builds a Rating from values read at full width. It refuses,
// with a *RangeError, a user or item ID outside [1, MaxID] and a score
// int8 cannot hold, so no value wraps into a different valid one
// (int8(261) is 5). A score that fits but lies outside
// [MinScore, MaxScore] passes here and fails Validate, as every rating
// does on its way into a store.
func NewRating(userID, itemID, score int, unix int64) (Rating, error) {
	if err := CheckID("user_id", userID); err != nil {
		return Rating{}, err
	}
	if err := CheckID("item_id", itemID); err != nil {
		return Rating{}, err
	}
	if score < math.MinInt8 || score > math.MaxInt8 {
		return Rating{}, &RangeError{Field: "score", Value: int64(score), Min: math.MinInt8, Max: math.MaxInt8}
	}
	return Rating{Unix: unix, UserID: int32(userID), Score: int8(score), ItemID: itemID}, nil
}

// Validate reports the first schema violation in r, if any.
func (r Rating) Validate() error {
	if r.UserID <= 0 {
		return fmt.Errorf("model: rating has invalid user id %d", r.UserID)
	}
	if r.ItemID <= 0 {
		return fmt.Errorf("model: rating has invalid item id %d", r.ItemID)
	}
	if r.Score < MinScore || r.Score > MaxScore {
		return fmt.Errorf("model: rating score %d outside [%d,%d]", r.Score, MinScore, MaxScore)
	}
	if r.Unix < firstUnix || r.Unix > lastUnix {
		return fmt.Errorf("model: rating timestamp %d outside years %d..%d", r.Unix, MinYear, MaxYear)
	}
	return nil
}
