// Package query implements MapRat's item-selection queries (§3.1, Figure
// 1): a user enters one or more attribute-value predicates over item
// attributes (movie title, actor, director, genre), combined conjunctively
// or disjunctively, optionally restricted to a time interval.
package query

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/store"
)

// Field is an item attribute a predicate can test.
type Field int

// Queryable item attributes. Movie matches the full title exactly (the
// form's "Movie Name" type) with a word-match fallback; Title always
// word-matches.
const (
	Movie Field = iota
	Title
	Actor
	Director
	Genre
)

var fieldNames = map[Field]string{
	Movie: "movie", Title: "title", Actor: "actor", Director: "director", Genre: "genre",
}

// String returns the field's query-syntax name.
func (f Field) String() string {
	if n, ok := fieldNames[f]; ok {
		return n
	}
	return fmt.Sprintf("Field(%d)", int(f))
}

// ParseField resolves a query-syntax field name.
func ParseField(s string) (Field, error) {
	for f, n := range fieldNames {
		if n == strings.ToLower(s) {
			return f, nil
		}
	}
	return 0, fmt.Errorf("query: unknown field %q", s)
}

// Pred is one attribute-value predicate.
type Pred struct {
	Field Field
	Value string
}

// String renders the predicate in query syntax.
func (p Pred) String() string {
	if strings.ContainsAny(p.Value, " \t") {
		return fmt.Sprintf("%s:%q", p.Field, p.Value)
	}
	return fmt.Sprintf("%s:%s", p.Field, p.Value)
}

// Op combines predicates.
type Op int

// The paper's two combinators: a query is conjunctive or disjunctive.
const (
	And Op = iota
	Or
)

// String returns the operator keyword.
func (o Op) String() string {
	if o == Or {
		return "OR"
	}
	return "AND"
}

// Query is a parsed item query plus its optional time restriction.
type Query struct {
	Op     Op
	Preds  []Pred
	Window store.TimeWindow
	// Epoch pins the query to a store data version under live ingestion;
	// 0 means latest. The mining layer resolves it before execution.
	// Epoch deliberately does NOT participate in String(): the plan cache
	// keys on the epoch-free text and versions entries by epoch range, so
	// an append invalidates plans surgically instead of colding every
	// key; result-cache keys fold the resolved epoch in separately.
	Epoch uint64
	// Framework selects the un-anchored framework mode (groups need no
	// geo-condition); the zero value is the demo's state-anchored mode.
	// Like Epoch it stays out of String(): the mode picks the candidate
	// cube, and the plan key carries the cube config.
	Framework bool
}

// String renders the query canonically (predicates in input order joined
// by the operator, window appended when bounded) — also the cache key.
func (q Query) String() string {
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		parts[i] = p.String()
	}
	s := strings.Join(parts, " "+q.Op.String()+" ")
	if !q.Window.IsAll() {
		s += " @" + q.Window.String()
	}
	return s
}

// Parse parses query syntax: one or more `field:value` terms joined by AND
// or OR (case-insensitive). Values containing spaces are double-quoted:
//
//	movie:"Toy Story"
//	actor:"Tom Hanks" AND genre:Thriller
//	movie:"The Two Towers" OR movie:"The Return of the King"
//
// Mixing AND and OR in one query is rejected — the paper's interface
// offers conjunctive or disjunctive queries, not arbitrary boolean trees.
func Parse(s string) (Query, error) {
	toks, err := lex(s)
	if err != nil {
		return Query{}, err
	}
	if len(toks) == 0 {
		return Query{}, fmt.Errorf("query: empty query")
	}
	q := Query{}
	opSet := false
	expectTerm := true
	for _, tok := range toks {
		upper := strings.ToUpper(tok)
		if upper == "AND" || upper == "OR" {
			if expectTerm {
				return Query{}, fmt.Errorf("query: operator %s without preceding term", upper)
			}
			op := And
			if upper == "OR" {
				op = Or
			}
			if opSet && q.Op != op {
				return Query{}, fmt.Errorf("query: cannot mix AND and OR in one query")
			}
			q.Op = op
			opSet = true
			expectTerm = true
			continue
		}
		if !expectTerm {
			return Query{}, fmt.Errorf("query: missing AND/OR before %q", tok)
		}
		pred, err := parseTerm(tok)
		if err != nil {
			return Query{}, err
		}
		q.Preds = append(q.Preds, pred)
		expectTerm = false
	}
	if expectTerm {
		return Query{}, fmt.Errorf("query: dangling operator")
	}
	return q, nil
}

// lex splits the query into terms and operators, keeping quoted values
// (including the whole field:"..." term) as single tokens.
func lex(s string) ([]string, error) {
	var toks []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '"':
			inQuote = !inQuote
		case !inQuote && (r == ' ' || r == '\t' || r == '\n'):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("query: unterminated quote")
	}
	flush()
	return toks, nil
}

func parseTerm(tok string) (Pred, error) {
	colon := strings.IndexByte(tok, ':')
	if colon <= 0 {
		return Pred{}, fmt.Errorf("query: term %q is not field:value", tok)
	}
	f, err := ParseField(tok[:colon])
	if err != nil {
		return Pred{}, err
	}
	val := strings.TrimSpace(tok[colon+1:])
	if val == "" {
		return Pred{}, fmt.Errorf("query: empty value in term %q", tok)
	}
	return Pred{Field: f, Value: val}, nil
}

// Resolve evaluates the query against a store and returns the matching
// item IDs, sorted ascending. A conjunctive query intersects each
// predicate's item set; a disjunctive query unions them.
func Resolve(s *store.Store, q Query) ([]int, error) {
	if len(q.Preds) == 0 {
		return nil, fmt.Errorf("query: no predicates")
	}
	var acc map[int]bool
	for i, p := range q.Preds {
		ids := resolvePred(s, p)
		set := make(map[int]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		switch {
		case i == 0:
			acc = set
		case q.Op == And:
			for id := range acc {
				if !set[id] {
					delete(acc, id)
				}
			}
		default: // Or
			for id := range set {
				acc[id] = true
			}
		}
		if q.Op == And && len(acc) == 0 {
			return nil, nil
		}
	}
	out := make([]int, 0, len(acc))
	for id := range acc {
		out = append(out, id)
	}
	sort.Ints(out)
	return out, nil
}

func resolvePred(s *store.Store, p Pred) []int {
	switch p.Field {
	case Movie:
		if ids := s.ItemsByTitle(p.Value); len(ids) > 0 {
			return ids
		}
		return s.ItemsByTitleTerms(p.Value)
	case Title:
		return s.ItemsByTitleTerms(p.Value)
	case Actor:
		return s.ItemsByActor(p.Value)
	case Director:
		return s.ItemsByDirector(p.Value)
	case Genre:
		return s.ItemsByGenre(p.Value)
	}
	return nil
}
