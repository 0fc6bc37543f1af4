package cube

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/model"
)

// Tuple is a rating joined with its reviewer's demographic attributes — the
// unit the mining problems operate on. MapRat constructs the set of tuples
// R_I for the queried items and then builds cube cells over them.
//
// The reviewer's city is carried only as its descriptor value in
// Vals[City] (render it with CityName; an unresolved city is Wildcard),
// not as a string: the whole-log tuple slice and every cached plan hold
// millions of tuples, so a 16-byte string header per tuple would cost
// ~30% extra resident memory and make the plan cache's tuple-denominated
// budget dishonest.
type Tuple struct {
	Vals   [NumAttrs]int16 // reviewer attribute values (descriptor vocabulary)
	Score  int8            // rating score in [1,5]
	Unix   int64           // rating timestamp
	UserID int32
	ItemID int32
}

// JoinRating builds a Tuple from a rating and its reviewer. The reviewer's
// State/City fields must already be resolved (see geo.Locate); reviewers
// with unresolvable zips get a Wildcard state and never satisfy
// geo-anchored group descriptions.
func JoinRating(r model.Rating, u *model.User) Tuple {
	t := Tuple{
		Score:  int8(r.Score),
		Unix:   r.Unix,
		UserID: int32(r.UserID),
		ItemID: int32(r.ItemID),
	}
	t.Vals[Gender] = int16(u.Gender)
	t.Vals[Age] = int16(u.Age)
	t.Vals[Occupation] = int16(u.Occupation)
	t.Vals[State] = StateIndex(u.State)
	t.Vals[City] = CityIndex(u.City)
	return t
}

// ResolveUser fills a user's State and City from its zip code. Users whose
// zip does not resolve keep empty strings.
func ResolveUser(u *model.User) {
	if loc, ok := geo.Locate(u.Zip); ok {
		u.State = loc.State
		u.City = loc.City
	}
}

// Agg is the additive aggregate of a cube cell: enough to compute the
// count, mean and variance of the cell's scores in O(1), and to merge cells
// in O(1) — the property the paper's pre-computation relies on.
type Agg struct {
	Count int
	Sum   int64 // sum of scores
	SumSq int64 // sum of squared scores
}

// Add accumulates one score.
func (a *Agg) Add(score int8) {
	a.Count++
	a.Sum += int64(score)
	a.SumSq += int64(score) * int64(score)
}

// Merge accumulates another aggregate.
func (a *Agg) Merge(b Agg) {
	a.Count += b.Count
	a.Sum += b.Sum
	a.SumSq += b.SumSq
}

// Mean returns the average score (0 for an empty aggregate).
func (a Agg) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Sum) / float64(a.Count)
}

// Variance returns the population variance of the scores. Floating-point
// cancellation is clamped at zero.
func (a Agg) Variance() float64 {
	if a.Count == 0 {
		return 0
	}
	m := a.Mean()
	// float64(m*m) rounds the product, so no GOARCH fuses the subtraction
	// into one multiply-subtract and σ is the same bytes everywhere.
	v := float64(a.SumSq)/float64(a.Count) - float64(m*m)
	if v < 0 {
		v = 0
	}
	return v
}

// Std returns the population standard deviation of the scores.
func (a Agg) Std() float64 { return math.Sqrt(a.Variance()) }

// String renders the aggregate for logs: "n=12 μ=4.25 σ=0.43".
func (a Agg) String() string {
	return fmt.Sprintf("n=%d μ=%.2f σ=%.2f", a.Count, a.Mean(), a.Std())
}
