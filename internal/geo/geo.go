// Package geo resolves US zip codes to states and cities so that every
// reviewer group can carry the geo-condition MapRat anchors its choropleth
// visualization on. Resolution uses the public allocation of 3-digit ZIP
// prefixes to states; city resolution refines a state's prefix ranges into
// named metropolitan areas (a deterministic substitute for a full gazetteer,
// sufficient for the paper's state→city drill-down).
package geo

import (
	"fmt"
	"sort"
)

// State describes one choropleth-renderable region.
type State struct {
	Code string // two-letter USPS code, e.g. "CA"
	Name string // full name, e.g. "California"
	// Row and Col place the state's tile in the grid cartogram used by
	// internal/viz (the standard 11x8 US tile-map layout).
	Row, Col int
}

// states lists the 50 US states plus DC with their tile-cartogram positions.
// Tile positions follow the conventional US tile grid (Alaska top-left,
// Florida bottom-right).
var states = []State{
	{"AK", "Alaska", 0, 0},
	{"ME", "Maine", 0, 10},
	{"VT", "Vermont", 1, 9},
	{"NH", "New Hampshire", 1, 10},
	{"WA", "Washington", 2, 0},
	{"ID", "Idaho", 2, 1},
	{"MT", "Montana", 2, 2},
	{"ND", "North Dakota", 2, 3},
	{"MN", "Minnesota", 2, 4},
	{"WI", "Wisconsin", 2, 5},
	{"MI", "Michigan", 2, 7},
	{"NY", "New York", 2, 9},
	{"MA", "Massachusetts", 2, 10},
	{"OR", "Oregon", 3, 0},
	{"NV", "Nevada", 3, 1},
	{"WY", "Wyoming", 3, 2},
	{"SD", "South Dakota", 3, 3},
	{"IA", "Iowa", 3, 4},
	{"IL", "Illinois", 3, 5},
	{"IN", "Indiana", 3, 6},
	{"OH", "Ohio", 3, 7},
	{"PA", "Pennsylvania", 3, 8},
	{"NJ", "New Jersey", 3, 9},
	{"CT", "Connecticut", 3, 10},
	{"RI", "Rhode Island", 2, 11},
	{"CA", "California", 4, 0},
	{"UT", "Utah", 4, 1},
	{"CO", "Colorado", 4, 2},
	{"NE", "Nebraska", 4, 3},
	{"MO", "Missouri", 4, 4},
	{"KY", "Kentucky", 4, 5},
	{"WV", "West Virginia", 4, 6},
	{"VA", "Virginia", 4, 7},
	{"MD", "Maryland", 4, 8},
	{"DE", "Delaware", 4, 9},
	{"AZ", "Arizona", 5, 1},
	{"NM", "New Mexico", 5, 2},
	{"KS", "Kansas", 5, 3},
	{"AR", "Arkansas", 5, 4},
	{"TN", "Tennessee", 5, 5},
	{"NC", "North Carolina", 5, 6},
	{"SC", "South Carolina", 5, 7},
	{"DC", "District of Columbia", 5, 8},
	{"OK", "Oklahoma", 6, 3},
	{"LA", "Louisiana", 6, 4},
	{"MS", "Mississippi", 6, 5},
	{"AL", "Alabama", 6, 6},
	{"GA", "Georgia", 6, 7},
	{"HI", "Hawaii", 7, 0},
	{"TX", "Texas", 7, 3},
	{"FL", "Florida", 7, 8},
}

// prefixRange maps an inclusive range of 3-digit ZIP prefixes to a state.
type prefixRange struct {
	lo, hi int // inclusive prefix bounds, e.g. 900..961
	state  string
}

// prefixRanges is the public allocation of 3-digit ZIP prefixes to states
// (continental gaps and military prefixes resolve to no state).
var prefixRanges = []prefixRange{
	{5, 5, "NY"},
	{10, 27, "MA"},
	{28, 29, "RI"},
	{30, 38, "NH"},
	{39, 49, "ME"},
	{50, 59, "VT"},
	{60, 69, "CT"},
	{70, 89, "NJ"},
	{100, 149, "NY"},
	{150, 196, "PA"},
	{197, 199, "DE"},
	{200, 205, "DC"},
	{206, 219, "MD"},
	{220, 246, "VA"},
	{247, 268, "WV"},
	{270, 289, "NC"},
	{290, 299, "SC"},
	{300, 319, "GA"},
	{320, 349, "FL"},
	{350, 369, "AL"},
	{370, 385, "TN"},
	{386, 397, "MS"},
	{398, 399, "GA"},
	{400, 427, "KY"},
	{430, 459, "OH"},
	{460, 479, "IN"},
	{480, 499, "MI"},
	{500, 528, "IA"},
	{530, 549, "WI"},
	{550, 567, "MN"},
	{570, 577, "SD"},
	{580, 588, "ND"},
	{590, 599, "MT"},
	{600, 629, "IL"},
	{630, 658, "MO"},
	{660, 679, "KS"},
	{680, 693, "NE"},
	{700, 714, "LA"},
	{716, 729, "AR"},
	{730, 749, "OK"},
	{750, 799, "TX"},
	{800, 816, "CO"},
	{820, 831, "WY"},
	{832, 838, "ID"},
	{840, 847, "UT"},
	{850, 865, "AZ"},
	{870, 884, "NM"},
	{885, 885, "TX"},
	{889, 898, "NV"},
	{900, 961, "CA"},
	{967, 968, "HI"},
	{970, 979, "OR"},
	{980, 994, "WA"},
	{995, 999, "AK"},
}

// City is a named metropolitan area inside a state, used by the paper's
// state→city drill-down. Each city owns a set of 3-digit ZIP prefixes.
type City struct {
	Name     string
	State    string
	Prefixes []int
}

// cityDefs assigns named cities to a subset of each state's prefixes. Zips
// whose prefix is allocated to the state but not to a named city resolve to
// the state's catch-all "Rest of <state>" city, so Locate is total over
// allocated prefixes.
var cityDefs = []City{
	{"Los Angeles", "CA", []int{900, 901, 902, 903, 904, 905, 906, 907, 908}},
	{"San Diego", "CA", []int{919, 920, 921}},
	{"San Francisco", "CA", []int{940, 941}},
	{"San Jose", "CA", []int{950, 951}},
	{"Sacramento", "CA", []int{942, 956, 957, 958}},
	{"New York City", "NY", []int{100, 101, 102, 103, 104, 110, 111, 112, 113, 114, 116}},
	{"Buffalo", "NY", []int{140, 141, 142}},
	{"Rochester", "NY", []int{144, 145, 146}},
	{"Albany", "NY", []int{120, 121, 122}},
	{"Boston", "MA", []int{21, 22}},
	{"Worcester", "MA", []int{16}},
	{"Springfield", "MA", []int{10, 11}},
	{"Chicago", "IL", []int{606, 607, 608}},
	{"Springfield IL", "IL", []int{625, 626}},
	{"Houston", "TX", []int{770, 772}},
	{"Dallas", "TX", []int{752, 753}},
	{"Austin", "TX", []int{786, 787}},
	{"San Antonio", "TX", []int{781, 782}},
	{"Seattle", "WA", []int{980, 981}},
	{"Spokane", "WA", []int{990, 991, 992}},
	{"Philadelphia", "PA", []int{190, 191}},
	{"Pittsburgh", "PA", []int{150, 151, 152}},
	{"Miami", "FL", []int{330, 331, 332, 333}},
	{"Orlando", "FL", []int{327, 328}},
	{"Tampa", "FL", []int{335, 336}},
	{"Atlanta", "GA", []int{300, 301, 302, 303}},
	{"Savannah", "GA", []int{313, 314}},
	{"Detroit", "MI", []int{481, 482}},
	{"Grand Rapids", "MI", []int{493, 494, 495}},
	{"Minneapolis", "MN", []int{553, 554, 555}},
	{"Denver", "CO", []int{800, 801, 802}},
	{"Phoenix", "AZ", []int{850, 852, 853}},
	{"Tucson", "AZ", []int{856, 857}},
	{"Portland", "OR", []int{970, 971, 972}},
	{"Las Vegas", "NV", []int{889, 890, 891}},
	{"Baltimore", "MD", []int{210, 211, 212}},
	{"Washington", "DC", []int{200, 202, 203, 204, 205}},
	{"Cleveland", "OH", []int{440, 441}},
	{"Columbus", "OH", []int{430, 432}},
	{"Cincinnati", "OH", []int{450, 451, 452}},
	{"Indianapolis", "IN", []int{460, 461, 462}},
	{"Nashville", "TN", []int{370, 371, 372}},
	{"Memphis", "TN", []int{375, 380, 381}},
	{"St. Louis", "MO", []int{630, 631}},
	{"Kansas City", "MO", []int{640, 641}},
	{"New Orleans", "LA", []int{700, 701}},
	{"Milwaukee", "WI", []int{530, 531, 532}},
	{"Charlotte", "NC", []int{280, 281, 282}},
	{"Raleigh", "NC", []int{275, 276}},
	{"Salt Lake City", "UT", []int{840, 841}},
	{"Newark", "NJ", []int{70, 71, 72}},
	{"Boise", "ID", []int{836, 837}},
	{"Anchorage", "AK", []int{995}},
	{"Honolulu", "HI", []int{967, 968}},
	{"Louisville", "KY", []int{400, 402}},
	{"Oklahoma City", "OK", []int{730, 731}},
	{"Tulsa", "OK", []int{740, 741}},
	{"Birmingham", "AL", []int{350, 352}},
	{"Des Moines", "IA", []int{500, 502, 503}},
	{"Omaha", "NE", []int{680, 681}},
	{"Wichita", "KS", []int{670, 672}},
	{"Little Rock", "AR", []int{720, 721, 722}},
	{"Jackson", "MS", []int{390, 392}},
	{"Providence", "RI", []int{28, 29}},
	{"Hartford", "CT", []int{60, 61}},
	{"Manchester", "NH", []int{31, 32}},
	{"Burlington", "VT", []int{54}},
	{"Portland ME", "ME", []int{39, 40, 41}},
	{"Charleston WV", "WV", []int{250, 251, 252, 253}},
	{"Charleston SC", "SC", []int{294}},
	{"Columbia", "SC", []int{290, 291, 292}},
	{"Richmond", "VA", []int{231, 232}},
	{"Virginia Beach", "VA", []int{234, 235, 236}},
	{"Wilmington", "DE", []int{197, 198}},
	{"Billings", "MT", []int{590, 591}},
	{"Fargo", "ND", []int{580, 581}},
	{"Sioux Falls", "SD", []int{570, 571}},
	{"Cheyenne", "WY", []int{820}},
	{"Albuquerque", "NM", []int{870, 871}},
	{"Santa Fe", "NM", []int{875}},
}

var (
	stateByCode  = map[string]*State{}
	prefixState  [1000]string // prefix -> state code ("" if unallocated)
	prefixCity   [1000]string // prefix -> named city ("" if none)
	citiesByCode = map[string][]string{}
)

func init() {
	for i := range states {
		stateByCode[states[i].Code] = &states[i]
	}
	for _, pr := range prefixRanges {
		for p := pr.lo; p <= pr.hi; p++ {
			prefixState[p] = pr.state
		}
	}
	for _, c := range cityDefs {
		for _, p := range c.Prefixes {
			if prefixState[p] != c.State {
				panic(fmt.Sprintf("geo: city %s prefix %03d allocated to %q, not %q",
					c.Name, p, prefixState[p], c.State))
			}
			prefixCity[p] = c.Name
		}
		citiesByCode[c.State] = append(citiesByCode[c.State], c.Name)
	}
	for code := range citiesByCode {
		sort.Strings(citiesByCode[code])
	}
	// Every state gets a catch-all city for prefixes without a named city.
	for _, s := range states {
		citiesByCode[s.Code] = append(citiesByCode[s.Code], restOf(s.Code))
	}
}

func restOf(code string) string { return "Rest of " + code }

// States returns all renderable states in tile order (row-major).
func States() []State {
	out := make([]State, len(states))
	copy(out, states)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// StateByCode returns the state for a two-letter code, or nil if unknown.
func StateByCode(code string) *State { return stateByCode[code] }

// StateCodes returns all two-letter state codes in a deterministic order.
func StateCodes() []string {
	codes := make([]string, 0, len(states))
	for _, s := range states {
		codes = append(codes, s.Code)
	}
	sort.Strings(codes)
	return codes
}

// Cities returns the named cities (plus the catch-all) of a state, sorted.
func Cities(stateCode string) []string {
	out := make([]string, len(citiesByCode[stateCode]))
	copy(out, citiesByCode[stateCode])
	return out
}

// Location is a resolved zip code.
type Location struct {
	State string // two-letter code, "" if the prefix is unallocated
	City  string // named city or "Rest of <state>"
}

// Locate resolves a 5-digit zip code (or any string whose first three bytes
// are digits) to a state and city. The second return value is false when the
// prefix is malformed or not allocated to any state.
func Locate(zip string) (Location, bool) {
	p, ok := Prefix(zip)
	if !ok {
		return Location{}, false
	}
	st := prefixState[p]
	if st == "" {
		return Location{}, false
	}
	city := prefixCity[p]
	if city == "" {
		city = restOf(st)
	}
	return Location{State: st, City: city}, true
}

// Prefix extracts the integer 3-digit prefix of a zip code.
func Prefix(zip string) (int, bool) {
	if len(zip) < 3 {
		return 0, false
	}
	p := 0
	for i := 0; i < 3; i++ {
		c := zip[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		p = p*10 + int(c-'0')
	}
	return p, true
}

// PrefixesFor returns the 3-digit prefixes allocated to a state, sorted.
// Useful for synthesizing realistic zip codes.
func PrefixesFor(stateCode string) []int {
	var out []int
	for p, st := range prefixState {
		if st == stateCode {
			out = append(out, p)
		}
	}
	return out
}
