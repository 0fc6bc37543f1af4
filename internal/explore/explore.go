// Package explore implements MapRat's interactive exploration (§2.3 and
// Figure 3): per-group rating statistics, the state→city drill-down, the
// evolution of a group's rating over time, and comparison against related
// (sibling) groups.
package explore

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/store"
)

// CityStat is one row of the city-level drill-down.
type CityStat struct {
	City string
	Agg  cube.Agg
}

// TimeBucket is one point of a group's rating-evolution series.
type TimeBucket struct {
	Start time.Time // bucket start (inclusive)
	End   time.Time // bucket end (exclusive)
	Agg   cube.Agg
}

// Label renders the bucket span compactly ("1998" for a calendar year,
// otherwise "2001-07..2002-01").
func (b TimeBucket) Label() string {
	if b.Start.Month() == time.January && b.Start.Day() == 1 &&
		b.End.Equal(b.Start.AddDate(1, 0, 0)) {
		return fmt.Sprintf("%d", b.Start.Year())
	}
	return b.Start.Format("2006-01") + ".." + b.End.Format("2006-01")
}

// GroupStats is the Figure-3 payload for one explanation group.
type GroupStats struct {
	Key    cube.Key
	Phrase string
	Agg    cube.Agg
	// Share is the fraction of the query's rating tuples this group
	// covers (the coverage the paper requires to be "reasonable").
	Share float64
	// Histogram[s] counts ratings with score s (index 0 unused).
	Histogram [model.MaxScore + 1]int
	// Cities is the state→city drill-down, sorted by rating count
	// descending. Empty when the group carries no state condition.
	Cities []CityStat
	// Timeline is the rating evolution across equal time buckets.
	Timeline []TimeBucket
}

// Stats computes the exploration payload for one group over the query's
// tuple set. buckets controls the timeline resolution (0 defaults to 8,
// matching the default dataset's eight-year window).
func Stats(tuples []cube.Tuple, g *cube.Group, buckets int) GroupStats {
	if buckets <= 0 {
		buckets = 8
	}
	st := GroupStats{Key: g.Key, Phrase: g.Key.Phrase(), Agg: g.Agg}
	if len(tuples) > 0 {
		st.Share = float64(len(g.Members)) / float64(len(tuples))
	}

	var minUnix, maxUnix int64
	// Keyed by the descriptor city value (Wildcard = unresolved city,
	// excluded like the pre-descriptor empty string was); names are
	// rendered once per city, not per tuple.
	cities := map[int16]*cube.Agg{}
	for i, ti := range g.Members {
		t := &tuples[ti]
		st.Histogram[t.Score]++
		if g.Key.Has(cube.State) && t.Vals[cube.City] != cube.Wildcard {
			a := cities[t.Vals[cube.City]]
			if a == nil {
				a = &cube.Agg{}
				cities[t.Vals[cube.City]] = a
			}
			a.Add(t.Score)
		}
		// Both bounds seed from the first member: a zero-initialized
		// maxUnix would stretch an all-pre-1970 group's timeline to the
		// epoch (mirroring the TimeWindow epoch-bound fix).
		if i == 0 || t.Unix < minUnix {
			minUnix = t.Unix
		}
		if i == 0 || t.Unix > maxUnix {
			maxUnix = t.Unix
		}
	}
	for city, agg := range cities {
		st.Cities = append(st.Cities, CityStat{City: cube.CityName(city), Agg: *agg})
	}
	sort.Slice(st.Cities, func(a, b int) bool {
		if st.Cities[a].Agg.Count != st.Cities[b].Agg.Count {
			return st.Cities[a].Agg.Count > st.Cities[b].Agg.Count
		}
		return st.Cities[a].City < st.Cities[b].City
	})

	if len(g.Members) > 0 {
		st.Timeline = timeline(tuples, g.Members, minUnix, maxUnix, buckets)
	}
	return st
}

// timeline buckets the group's ratings into equal spans of [minUnix,
// maxUnix].
func timeline(tuples []cube.Tuple, members []int32, minUnix, maxUnix int64, buckets int) []TimeBucket {
	span := maxUnix - minUnix + 1
	if span < int64(buckets) {
		buckets = 1
	}
	out := make([]TimeBucket, buckets)
	width := span / int64(buckets)
	if width == 0 {
		width = 1
	}
	for i := range out {
		startU := minUnix + int64(i)*width
		endU := startU + width
		if i == buckets-1 {
			endU = maxUnix + 1
		}
		out[i].Start = time.Unix(startU, 0).UTC()
		out[i].End = time.Unix(endU, 0).UTC()
	}
	for _, ti := range members {
		t := &tuples[ti]
		idx := int((t.Unix - minUnix) / width)
		if idx >= buckets {
			idx = buckets - 1
		}
		out[idx].Agg.Add(t.Score)
	}
	return out
}

// Related returns the sibling groups of g present in the cube (identical
// description except one attribute's value), sorted by support descending,
// ties by label — Figure 3's "compare the rating patterns of related
// groups". It is one Key.SiblingOf scan over the cube's groups, so a click
// pays only for its own group's siblings. g must come from c: a group the
// cube does not hold has no related groups.
func Related(c *cube.Cube, g *cube.Group) []*cube.Group {
	if _, ok := c.Group(g.Key); !ok {
		return nil
	}
	var out []*cube.Group
	for i := range c.Groups {
		if _, ok := g.Key.SiblingOf(c.Groups[i].Key); ok {
			out = append(out, &c.Groups[i])
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Support() != out[b].Support() {
			return out[a].Support() > out[b].Support()
		}
		return out[a].Key.String() < out[b].Key.String()
	})
	return out
}

// YearWindows splits [from, to] into consecutive calendar-year windows —
// the discrete positions of the §3.1 time slider.
func YearWindows(from, to int64) []store.TimeWindow {
	if to < from {
		return nil
	}
	start := time.Unix(from, 0).UTC()
	end := time.Unix(to, 0).UTC()
	var out []store.TimeWindow
	for y := start.Year(); y <= end.Year(); y++ {
		lo := time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
		hi := time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC).Unix() - 1
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		out = append(out, store.Between(lo, hi))
	}
	return out
}
