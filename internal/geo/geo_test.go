package geo

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestStatesComplete(t *testing.T) {
	if n := len(States()); n != 51 {
		t.Fatalf("len(States()) = %d, want 51 (50 states + DC)", n)
	}
	seen := map[string]bool{}
	for _, s := range States() {
		if len(s.Code) != 2 {
			t.Errorf("state code %q not two letters", s.Code)
		}
		if seen[s.Code] {
			t.Errorf("duplicate state %q", s.Code)
		}
		seen[s.Code] = true
		if s.Name == "" {
			t.Errorf("state %q has no name", s.Code)
		}
	}
	for _, want := range []string{"CA", "NY", "MA", "TX", "DC", "AK", "HI"} {
		if !seen[want] {
			t.Errorf("missing state %q", want)
		}
	}
}

func TestStatesTileOrder(t *testing.T) {
	prev := States()[0]
	for _, s := range States()[1:] {
		if s.Row < prev.Row || (s.Row == prev.Row && s.Col < prev.Col) {
			t.Fatalf("States() not row-major: %+v after %+v", s, prev)
		}
		prev = s
	}
}

func TestTilePositionsUnique(t *testing.T) {
	type pos struct{ r, c int }
	seen := map[pos]string{}
	for _, s := range States() {
		p := pos{s.Row, s.Col}
		if other, dup := seen[p]; dup {
			t.Errorf("states %s and %s share tile (%d,%d)", other, s.Code, s.Row, s.Col)
		}
		seen[p] = s.Code
	}
}

func TestStateByCode(t *testing.T) {
	ca := StateByCode("CA")
	if ca == nil || ca.Name != "California" {
		t.Errorf("StateByCode(CA) = %+v", ca)
	}
	if StateByCode("ZZ") != nil {
		t.Error("StateByCode(ZZ) should be nil")
	}
}

func TestLocateKnownZips(t *testing.T) {
	cases := []struct {
		zip   string
		state string
		city  string
	}{
		{"90210", "CA", "Los Angeles"},
		{"94110", "CA", "San Francisco"},
		{"10001", "NY", "New York City"},
		{"02139", "MA", "Boston"},
		{"60614", "IL", "Chicago"},
		{"77005", "TX", "Houston"},
		{"98101", "WA", "Seattle"},
		{"33101", "FL", "Miami"},
		{"20500", "DC", "Washington"},
		{"30301", "GA", "Atlanta"},
		{"55401", "MN", "Minneapolis"},
		{"80202", "CO", "Denver"},
	}
	for _, c := range cases {
		loc, ok := Locate(c.zip)
		if !ok {
			t.Errorf("Locate(%q) failed", c.zip)
			continue
		}
		if loc.State != c.state || loc.City != c.city {
			t.Errorf("Locate(%q) = %+v, want {%s %s}", c.zip, loc, c.state, c.city)
		}
	}
}

func TestLocateCatchAllCity(t *testing.T) {
	// 93xxx is CA (900-961 allocation) but not assigned to a named city.
	loc, ok := Locate("93401")
	if !ok || loc.State != "CA" {
		t.Fatalf("Locate(93401) = %+v, %v", loc, ok)
	}
	if loc.City != "Rest of CA" {
		t.Errorf("catch-all city = %q, want \"Rest of CA\"", loc.City)
	}
}

func TestLocateInvalid(t *testing.T) {
	for _, zip := range []string{"", "1", "12", "abcde", "12a45", "96600" /* military */, "00000"} {
		if loc, ok := Locate(zip); ok {
			t.Errorf("Locate(%q) = %+v, want failure", zip, loc)
		}
	}
}

func TestPrefixParsing(t *testing.T) {
	if p, ok := Prefix("90210"); !ok || p != 902 {
		t.Errorf("Prefix(90210) = %d, %v", p, ok)
	}
	if p, ok := Prefix("00501"); !ok || p != 5 {
		t.Errorf("Prefix(00501) = %d, %v", p, ok)
	}
	if _, ok := Prefix("9x210"); ok {
		t.Error("Prefix with letter accepted")
	}
}

func TestLocateNeverPanicsProperty(t *testing.T) {
	f := func(zip string) bool {
		loc, ok := Locate(zip)
		if !ok {
			return loc.State == "" && loc.City == ""
		}
		return StateByCode(loc.State) != nil && loc.City != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEveryStateHasPrefixes(t *testing.T) {
	for _, s := range States() {
		if len(PrefixesFor(s.Code)) == 0 {
			t.Errorf("state %s has no ZIP prefixes", s.Code)
		}
	}
}

func TestPrefixesRoundTrip(t *testing.T) {
	// Every prefix allocated to a state must locate back to that state.
	for _, s := range States() {
		for _, p := range PrefixesFor(s.Code) {
			zip := fmtZip(p)
			loc, ok := Locate(zip)
			if !ok || loc.State != s.Code {
				t.Fatalf("Locate(%s) = %+v, %v; want state %s", zip, loc, ok, s.Code)
			}
		}
	}
}

func fmtZip(prefix int) string {
	return string([]byte{
		byte('0' + prefix/100),
		byte('0' + (prefix/10)%10),
		byte('0' + prefix%10),
		'0', '1',
	})
}

func TestCitiesCoverState(t *testing.T) {
	for _, s := range States() {
		cities := Cities(s.Code)
		if len(cities) == 0 {
			t.Errorf("state %s has no cities", s.Code)
			continue
		}
		hasCatchAll := false
		for _, c := range cities {
			if strings.HasPrefix(c, "Rest of ") {
				hasCatchAll = true
			}
		}
		if !hasCatchAll {
			t.Errorf("state %s lacks a catch-all city", s.Code)
		}
	}
}

func TestCityPrefixesPartitionState(t *testing.T) {
	// Every prefix a state allocates must resolve, through Locate, to that
	// state and to one of its cities (named or catch-all), and every named
	// city must own at least one prefix.
	for _, s := range States() {
		cities := map[string]int{}
		for _, city := range Cities(s.Code) {
			cities[city] = 0
		}
		for _, p := range PrefixesFor(s.Code) {
			zip := fmt.Sprintf("%03d00", p)
			loc, ok := Locate(zip)
			if !ok || loc.State != s.Code {
				t.Errorf("%s: prefix %03d locates to %+v (ok=%v)", s.Code, p, loc, ok)
				continue
			}
			if _, known := cities[loc.City]; !known {
				t.Errorf("%s: prefix %03d locates to unlisted city %q", s.Code, p, loc.City)
			}
			cities[loc.City]++
		}
		for city, n := range cities {
			if n == 0 && city != restOf(s.Code) {
				t.Errorf("%s: city %q owns no prefix", s.Code, city)
			}
		}
	}
}

func TestCitiesAreSortedAndDeterministic(t *testing.T) {
	a := Cities("CA")
	b := Cities("CA")
	if len(a) != len(b) {
		t.Fatal("Cities not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Cities not deterministic")
		}
	}
	// Mutating the returned slice must not affect the package state.
	a[0] = "MUTATED"
	if Cities("CA")[0] == "MUTATED" {
		t.Error("Cities returns an aliased slice")
	}
}

func TestStateCodesSorted(t *testing.T) {
	codes := StateCodes()
	if len(codes) != len(States()) {
		t.Fatalf("StateCodes len = %d", len(codes))
	}
	for i := 1; i < len(codes); i++ {
		if codes[i-1] >= codes[i] {
			t.Fatalf("StateCodes not strictly sorted at %d: %v", i, codes)
		}
	}
}

func BenchmarkLocate(b *testing.B) {
	zips := []string{"90210", "10001", "02139", "60614", "77005", "98101", "33101", "55401"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Locate(zips[i%len(zips)]); !ok {
			b.Fatal("miss")
		}
	}
}
