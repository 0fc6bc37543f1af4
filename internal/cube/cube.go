// Package cube implements the data-cube view of rating tuples that MapRat's
// group model is defined on (§2.1 of the paper, after Gray et al.'s data
// cube): a group is the set of rating tuples describable by a conjunction of
// reviewer attribute-value pairs, e.g. {⟨location, CA⟩, ⟨occupation,
// student⟩}. The package provides canonical group descriptors (Key), cube
// cell enumeration, O(1)-mergeable aggregates, and candidate-group
// construction with support and label-length pruning.
package cube

import (
	"fmt"
	"strings"

	"repro/internal/geo"
	"repro/internal/model"
)

// Attr enumerates the reviewer attributes a group description may condition
// on. State is derived from the reviewer's zip code; it is the geo-condition
// the paper's choropleth anchors on. City refines the state for the paper's
// drill-down ("if the original geo condition was over a state, the drill
// down provides city level statistics"); it only participates in candidate
// enumeration when a Config enables it, so state-level mining pays nothing
// for it.
type Attr uint8

// Reviewer attributes in descriptor order.
const (
	Gender Attr = iota
	Age
	Occupation
	State
	City
	NumAttrs int = iota
)

var attrNames = [NumAttrs]string{"gender", "age", "occupation", "state", "city"}

// String returns the lower-case attribute name.
func (a Attr) String() string {
	if int(a) < NumAttrs {
		return attrNames[a]
	}
	return fmt.Sprintf("Attr(%d)", uint8(a))
}

// ParseAttr resolves an attribute name ("gender", "age", "occupation",
// "state") to its Attr.
func ParseAttr(name string) (Attr, error) {
	for i, n := range attrNames {
		if n == name {
			return Attr(i), nil
		}
	}
	return 0, fmt.Errorf("cube: unknown attribute %q", name)
}

// stateCodes is the sorted state vocabulary; a descriptor stores a state as
// its index in this slice.
var stateCodes = geo.StateCodes()

var stateIndex = func() map[string]int16 {
	m := make(map[string]int16, len(stateCodes))
	for i, c := range stateCodes {
		m[c] = int16(i)
	}
	return m
}()

// StateIndex returns the descriptor value for a two-letter state code, or -1
// if the code is unknown.
func StateIndex(code string) int16 {
	if i, ok := stateIndex[code]; ok {
		return i
	}
	return -1
}

// StateCode returns the two-letter code for a descriptor state value.
func StateCode(idx int16) string {
	if idx >= 0 && int(idx) < len(stateCodes) {
		return stateCodes[idx]
	}
	return "??"
}

// cityNames is the global city vocabulary: every state's cities (named
// plus the catch-all), in (state, city) order. City names are unique
// across states by construction of the geo tables.
var cityNames = func() []string {
	var out []string
	for _, code := range geo.StateCodes() {
		out = append(out, geo.Cities(code)...)
	}
	return out
}()

var cityIndexByName = func() map[string]int16 {
	m := make(map[string]int16, len(cityNames))
	for i, c := range cityNames {
		m[c] = int16(i)
	}
	return m
}()

// CityIndex returns the descriptor value for a city name, or -1 if the
// city is not in the gazetteer.
func CityIndex(name string) int16 {
	if i, ok := cityIndexByName[name]; ok {
		return i
	}
	return -1
}

// CityName returns the city name for a descriptor city value.
func CityName(idx int16) string {
	if idx >= 0 && int(idx) < len(cityNames) {
		return cityNames[idx]
	}
	return "??"
}

// Cardinality returns the size of an attribute's value vocabulary.
func Cardinality(a Attr) int {
	switch a {
	case Gender:
		return model.NumGenders
	case Age:
		return model.NumAgeBuckets
	case Occupation:
		return model.NumOccupations
	case State:
		return len(stateCodes)
	case City:
		return len(cityNames)
	}
	return 0
}

// Wildcard marks an unconstrained attribute in a Key.
const Wildcard int16 = -1

// Key is a canonical, comparable group descriptor: Key[a] holds the value
// index of attribute a, or Wildcard when the group does not condition on a.
// Keys are valid map keys, which makes cube-cell accumulation a single map
// insert per cell.
type Key [NumAttrs]int16

// KeyAll is the fully unconstrained descriptor (the cube's apex cell).
var KeyAll = Key{Wildcard, Wildcard, Wildcard, Wildcard, Wildcard}

// With returns a copy of k with attribute a constrained to value v.
func (k Key) With(a Attr, v int16) Key {
	k[a] = v
	return k
}

// Has reports whether attribute a is constrained.
func (k Key) Has(a Attr) bool { return k[a] != Wildcard }

// NumConstrained returns the number of attribute-value pairs in the
// description (the label length the paper keeps small for readability).
func (k Key) NumConstrained() int {
	n := 0
	for _, v := range k {
		if v != Wildcard {
			n++
		}
	}
	return n
}

// Matches reports whether a tuple with attribute values vals belongs to the
// group described by k.
func (k Key) Matches(vals [NumAttrs]int16) bool {
	for a, v := range k {
		if v != Wildcard && vals[a] != v {
			return false
		}
	}
	return true
}

// Contains reports whether every tuple in the group described by other also
// belongs to the group described by k (i.e. k is an ancestor of other in the
// cube lattice, or equal).
func (k Key) Contains(other Key) bool {
	for a, v := range k {
		if v != Wildcard && other[a] != v {
			return false
		}
	}
	return true
}

// SiblingOf reports whether k and other constrain the same attributes and
// differ in exactly one attribute's value — the paper's Diversity Mining
// pattern ("male reviewers under 18" vs "female reviewers under 18").
// The second return value is the differing attribute.
func (k Key) SiblingOf(other Key) (Attr, bool) {
	diff := -1
	for a := 0; a < NumAttrs; a++ {
		kc, oc := k[a] != Wildcard, other[a] != Wildcard
		if kc != oc {
			return 0, false
		}
		if kc && k[a] != other[a] {
			if diff != -1 {
				return 0, false
			}
			diff = a
		}
	}
	if diff == -1 {
		return 0, false
	}
	return Attr(diff), true
}

// ValueLabel renders one attribute value as a human-readable string.
func ValueLabel(a Attr, v int16) string {
	switch a {
	case Gender:
		return model.Gender(v).Label()
	case Age:
		return model.AgeBucket(v).Label()
	case Occupation:
		return model.Occupation(v).Label()
	case State:
		return StateCode(v)
	case City:
		return CityName(v)
	}
	return fmt.Sprintf("%d", v)
}

// ParseValue resolves a value string for attribute a to its descriptor
// value. It accepts the same strings ValueLabel produces, plus the MovieLens
// raw encodings (gender "M"/"F", age codes such as "18").
func ParseValue(a Attr, s string) (int16, error) {
	switch a {
	case Gender:
		if g, err := model.ParseGender(s); err == nil {
			return int16(g), nil
		}
		switch strings.ToLower(s) {
		case "male":
			return int16(model.Male), nil
		case "female":
			return int16(model.Female), nil
		}
	case Age:
		for b := 0; b < model.NumAgeBuckets; b++ {
			if model.AgeBucket(b).Label() == s {
				return int16(b), nil
			}
		}
		var code int
		if _, err := fmt.Sscanf(s, "%d", &code); err == nil {
			if b, err := model.ParseAgeCode(code); err == nil {
				return int16(b), nil
			}
		}
	case Occupation:
		if o, ok := model.OccupationByLabel(s); ok {
			return int16(o), nil
		}
	case State:
		if i := StateIndex(strings.ToUpper(s)); i >= 0 {
			return i, nil
		}
	case City:
		if i := CityIndex(s); i >= 0 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("cube: cannot parse %q as a %s value", s, a)
}

// String renders the descriptor as a compact conjunction, e.g.
// "gender=male ∧ age=under 18 ∧ state=CA". The apex cell renders as "⟨all⟩".
func (k Key) String() string {
	parts := make([]string, 0, NumAttrs)
	for a := 0; a < NumAttrs; a++ {
		if k[a] != Wildcard {
			parts = append(parts, Attr(a).String()+"="+ValueLabel(Attr(a), k[a]))
		}
	}
	if len(parts) == 0 {
		return "⟨all⟩"
	}
	return strings.Join(parts, " ∧ ")
}

// Phrase renders the descriptor the way the paper captions groups, e.g.
// "female teen student reviewers from New York" becomes
// "female under-18 K-12 student reviewers from NY".
func (k Key) Phrase() string {
	var b strings.Builder
	if k.Has(Gender) {
		b.WriteString(model.Gender(k[Gender]).Label())
		b.WriteByte(' ')
	}
	if k.Has(Age) {
		age := strings.ReplaceAll(model.AgeBucket(k[Age]).Label(), " ", "-")
		b.WriteString(age)
		b.WriteByte(' ')
	}
	if k.Has(Occupation) {
		b.WriteString(model.Occupation(k[Occupation]).Label())
		b.WriteByte(' ')
	}
	b.WriteString("reviewers")
	switch {
	case k.Has(City) && k.Has(State):
		b.WriteString(" from ")
		b.WriteString(CityName(k[City]))
		b.WriteString(", ")
		b.WriteString(StateCode(k[State]))
	case k.Has(City):
		b.WriteString(" from ")
		b.WriteString(CityName(k[City]))
	case k.Has(State):
		b.WriteString(" from ")
		if st := geo.StateByCode(StateCode(k[State])); st != nil {
			b.WriteString(st.Name)
		} else {
			b.WriteString(StateCode(k[State]))
		}
	}
	return b.String()
}

// Param renders the descriptor in the comma-separated form ParseKey
// accepts ("gender=male,age=under 18,state=NY") — the URL-safe encoding
// the web front-end round-trips group identities through.
func (k Key) Param() string {
	parts := make([]string, 0, NumAttrs)
	for a := 0; a < NumAttrs; a++ {
		if k[a] != Wildcard {
			parts = append(parts, Attr(a).String()+"="+ValueLabel(Attr(a), k[a]))
		}
	}
	return strings.Join(parts, ",")
}

// ParseKey parses a comma-separated descriptor such as
// "gender=F,age=under 18,state=NY". An empty string yields KeyAll. An
// attribute may be named once: "state=CA,state=NY" describes no group.
func ParseKey(s string) (Key, error) {
	k := KeyAll
	if strings.TrimSpace(s) == "" {
		return k, nil
	}
	for _, part := range strings.Split(s, ",") {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return k, fmt.Errorf("cube: descriptor term %q is not attr=value", part)
		}
		a, err := ParseAttr(strings.TrimSpace(part[:eq]))
		if err != nil {
			return k, err
		}
		if k[a] != Wildcard {
			return k, fmt.Errorf("cube: descriptor names %s twice", a)
		}
		v, err := ParseValue(a, strings.TrimSpace(part[eq+1:]))
		if err != nil {
			return k, err
		}
		k[a] = v
	}
	return k, nil
}
