package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Every response body is written by encoding/json, and every v1 JSON
// body goes out with a Content-Length (writeBody), so a client reads it
// into one buffer of the right size and net/http never chunks it. The
// four v1 read responses (explain, group, refine, drill) are the bodies
// every interactive click moves, and their Group lists dominate them, so
// the SDK reads those four types with the typed reader in this file: one
// read method per type, no reflection and no interface dispatch.
//
// The reader converts the body to a string once and takes each decoded
// string that has no escapes as a substring of that one copy, so the
// document shares one allocation for its strings and never aliases the
// caller's buffer. Keys are tried in declaration order first, the order
// encoding/json writes them, before the rest of the type's keys; plain
// non-negative integers are parsed inline. The reader takes
// encoding/json's output, with keys in any order and whitespace
// anywhere; on any other input (an escaped, unknown, case-folded or
// repeated key, a null where an object goes, data after the value) it
// gives up and encoding/json decodes the body, so every body decodes as
// encoding/json decodes it. No type here implements json.Unmarshaler:
// encoding/json skips over a value before handing it to an Unmarshaler,
// which would give back most of the gain.

// encodeJSON returns v encoded by json.NewEncoder(w).Encode(v), trailing
// newline included. A NaN or infinite float fails the encode.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// DecodeResponse decodes one response body into out, which should point
// to a zero value. The result and the error are always those of
// json.NewDecoder(bytes.NewReader(raw)).Decode(out): the four v1 read
// responses take the typed reader when raw has the shape encoding/json
// writes, and everything else goes to encoding/json. The decoded
// document does not alias raw: its strings share one copy of the body,
// so the caller may reuse raw at once.
func DecodeResponse(raw []byte, out any) error {
	if decodeFast(raw, out) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(raw)).Decode(out)
}

// decodeFast decodes raw into out when out is one of the four read
// responses and raw holds exactly one value the strict reader accepts.
// Otherwise it leaves *out zeroed and reports false.
func decodeFast(raw []byte, out any) bool {
	switch v := out.(type) {
	case *ExplainResponse:
		return readDocument(raw, v, (*reader).explain)
	case *GroupResponse:
		return readDocument(raw, v, (*reader).groupResponse)
	case *RefinementsResponse:
		return readDocument(raw, v, (*reader).refinements)
	case *DrillResponse:
		return readDocument(raw, v, (*reader).drill)
	}
	return false
}

// reader is a strict scanner over one JSON document. At the first byte
// it does not expect it sets bad and jumps to the end of the input, so
// every later read fails too and the caller unwinds without checks.
type reader struct {
	s   string
	i   int
	bad bool
}

func (r *reader) fail() {
	r.bad = true
	r.i = len(r.s)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (r *reader) peek() byte {
	for ; r.i < len(r.s); r.i++ {
		switch c := r.s[r.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (r *reader) expect(c byte) {
	if r.peek() != c {
		r.fail()
		return
	}
	r.i++
}

func (r *reader) literal(lit string) {
	if !strings.HasPrefix(r.s[r.i:], lit) {
		r.fail()
		return
	}
	r.i += len(lit)
}

// readDocument reads one top-level value into a zeroed *v and requires
// nothing but whitespace after it. On failure *v is zeroed again, so
// nothing half-read leaks into the encoding/json fallback.
func readDocument[T any](raw []byte, v *T, read func(*reader, *T)) bool {
	if v == nil {
		return false
	}
	var zero T
	*v = zero
	r := reader{s: string(raw)}
	read(&r, v)
	if r.peek(); !r.bad && r.i == len(r.s) {
		return true
	}
	*v = zero
	return false
}

// object walks the members of one JSON object. keys lists its type's
// JSON keys in declaration order; a read method switches on the index
// member returns.
type object struct {
	keys []string
	next int // the index of the key expected next
	seen uint64
	open bool
}

// member reads up to the value of the object's next member and returns
// its key's index in o.keys, or -1 at the object's end or on failure.
// The key expected next is tried first, then the others in turn. Keys
// must be plain ASCII, known and unique: encoding/json also folds case,
// unescapes keys and merges a repeated key into the earlier value, none
// of which the reader mimics.
func (r *reader) member(o *object) int {
	switch {
	case !o.open:
		o.open = true
		r.expect('{')
		if r.peek() == '}' {
			r.i++
			return -1
		}
	case r.peek() == ',':
		r.i++
	default:
		r.expect('}')
		return -1
	}
	r.expect('"')
	rest, n := r.s[r.i:], len(o.keys)
	for j := range n {
		k := o.next + j
		if k >= n {
			k -= n
		}
		key := o.keys[k]
		if len(rest) <= len(key) || rest[len(key)] != '"' || rest[:len(key)] != key {
			continue
		}
		if o.seen&(1<<k) != 0 {
			break
		}
		o.seen |= 1 << k
		o.next = k + 1
		r.i += len(key) + 1
		if r.expect(':'); r.bad {
			return -1
		}
		return k
	}
	r.fail()
	return -1
}

// array reads an array into *s, each element with elem: null gives a
// nil slice and [] an empty non-nil one, as with encoding/json.
func array[T any](r *reader, s *[]T, elem func(*reader, *T)) {
	if r.peek() == 'n' {
		r.literal("null")
		*s = nil
		return
	}
	r.expect('[')
	out := []T{}
	if r.peek() == ']' {
		r.i++
		*s = out
		return
	}
	for !r.bad {
		var zero T
		out = append(out, zero)
		elem(r, &out[len(out)-1])
		if r.peek() != ',' {
			r.expect(']')
			break
		}
		r.i++
	}
	*s = out
}

// The keys of each response type, in declaration order
// (TestWireKeysFollowDeclarationOrder).
var (
	explainKeys     = []string{"query", "item_ids", "num_ratings", "overall_mean", "overall_std", "tasks"}
	taskKeys        = []string{"task", "objective", "coverage", "relaxed_coverage", "feasible", "evals", "groups", "geojson"}
	groupKeys       = []string{"key", "phrase", "icons", "state", "mean", "std", "count", "share"}
	geoJSONKeys     = []string{"type", "features"}
	featureKeys     = []string{"type", "geometry", "properties"}
	geometryKeys    = []string{"type", "coordinates"}
	shadeKeys       = []string{"state", "name", "mean", "count", "fill", "label", "icons"}
	groupRespKeys   = []string{"query", "group", "histogram", "cities", "timeline", "related", "refinements"}
	cityKeys        = []string{"city", "mean", "std", "count"}
	bucketKeys      = []string{"start", "end", "label", "mean", "count"}
	refinementKeys  = []string{"group", "added", "delta"}
	refinementsKeys = []string{"query", "key", "refinements"}
	drillKeys       = []string{"query", "parent", "result"}
)

func (r *reader) explain(p *ExplainResponse) {
	o := object{keys: explainKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.Query)
		case 1:
			array(r, &p.ItemIDs, (*reader).int)
		case 2:
			r.int(&p.NumRatings)
		case 3:
			r.float(&p.OverallMean)
		case 4:
			r.float(&p.OverallStd)
		case 5:
			array(r, &p.Tasks, (*reader).task)
		default:
			return
		}
	}
}

func (r *reader) task(p *TaskResult) {
	o := object{keys: taskKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.Task)
		case 1:
			r.float(&p.Objective)
		case 2:
			r.float(&p.Coverage)
		case 3:
			r.float(&p.RelaxedCoverage)
		case 4:
			r.bool(&p.Feasible)
		case 5:
			r.int(&p.Evals)
		case 6:
			array(r, &p.Groups, (*reader).group)
		case 7:
			r.geoJSON(&p.GeoJSON)
		default:
			return
		}
	}
}

func (r *reader) group(p *Group) {
	o := object{keys: groupKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.Key)
		case 1:
			r.str(&p.Phrase)
		case 2:
			r.str(&p.Icons)
		case 3:
			r.str(&p.State)
		case 4:
			r.float(&p.Mean)
		case 5:
			r.float(&p.Std)
		case 6:
			r.int(&p.Count)
		case 7:
			r.float(&p.Share)
		default:
			return
		}
	}
}

func (r *reader) geoJSON(p **GeoJSON) {
	if r.peek() == 'n' {
		r.literal("null")
		*p = nil
		return
	}
	g := new(GeoJSON)
	*p = g
	o := object{keys: geoJSONKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&g.Type)
		case 1:
			array(r, &g.Features, (*reader).feature)
		default:
			return
		}
	}
}

func (r *reader) feature(p *Feature) {
	o := object{keys: featureKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.Type)
		case 1:
			r.geometry(&p.Geometry)
		case 2:
			r.shade(&p.Properties)
		default:
			return
		}
	}
}

func (r *reader) geometry(p *Geometry) {
	o := object{keys: geometryKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.Type)
		case 1:
			array(r, &p.Coordinates, (*reader).ring)
		default:
			return
		}
	}
}

func (r *reader) ring(p *[][2]float64) { array(r, p, (*reader).point) }

func (r *reader) point(p *[2]float64) {
	r.expect('[')
	r.float(&p[0])
	r.expect(',')
	r.float(&p[1])
	r.expect(']')
}

func (r *reader) shade(p *ShadeProperties) {
	o := object{keys: shadeKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.State)
		case 1:
			r.str(&p.Name)
		case 2:
			r.float(&p.Mean)
		case 3:
			r.int(&p.Count)
		case 4:
			r.str(&p.Fill)
		case 5:
			r.str(&p.Label)
		case 6:
			r.str(&p.Icons)
		default:
			return
		}
	}
}

func (r *reader) groupResponse(p *GroupResponse) {
	o := object{keys: groupRespKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.Query)
		case 1:
			r.group(&p.Group)
		case 2:
			array(r, &p.Histogram, (*reader).int)
		case 3:
			array(r, &p.Cities, (*reader).city)
		case 4:
			array(r, &p.Timeline, (*reader).bucket)
		case 5:
			array(r, &p.Related, (*reader).group)
		case 6:
			array(r, &p.Refinements, (*reader).refinement)
		default:
			return
		}
	}
}

func (r *reader) city(p *CityStat) {
	o := object{keys: cityKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.City)
		case 1:
			r.float(&p.Mean)
		case 2:
			r.float(&p.Std)
		case 3:
			r.int(&p.Count)
		default:
			return
		}
	}
}

func (r *reader) bucket(p *TimeBucket) {
	o := object{keys: bucketKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.Start)
		case 1:
			r.str(&p.End)
		case 2:
			r.str(&p.Label)
		case 3:
			r.float(&p.Mean)
		case 4:
			r.int(&p.Count)
		default:
			return
		}
	}
}

func (r *reader) refinement(p *Refinement) {
	o := object{keys: refinementKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.group(&p.Group)
		case 1:
			r.str(&p.Added)
		case 2:
			r.float(&p.Delta)
		default:
			return
		}
	}
}

func (r *reader) refinements(p *RefinementsResponse) {
	o := object{keys: refinementsKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.Query)
		case 1:
			r.str(&p.Key)
		case 2:
			array(r, &p.Refinements, (*reader).refinement)
		default:
			return
		}
	}
}

func (r *reader) drill(p *DrillResponse) {
	o := object{keys: drillKeys}
	for {
		switch r.member(&o) {
		case 0:
			r.str(&p.Query)
		case 1:
			r.str(&p.Parent)
		case 2:
			r.task(&p.Result)
		default:
			return
		}
	}
}

// str reads a string. One without escapes or control bytes, in valid
// UTF-8, is a substring of the reader's copy of the body. Any other goes
// to json.Unmarshal, which also rejects the malformed ones; only the
// query is ever escaped on the wire.
func (r *reader) str(s *string) {
	if r.peek() != '"' {
		r.fail()
		return
	}
	start, plain, ascii := r.i, true, true
	i := start + 1
	for ; i < len(r.s) && r.s[i] != '"'; i++ {
		switch c := r.s[i]; {
		case c == '\\':
			i++
			plain = false
		case c < 0x20:
			plain = false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if i >= len(r.s) {
		r.fail()
		return
	}
	r.i = i + 1
	if body := r.s[start+1 : i]; plain && (ascii || utf8.ValidString(body)) {
		*s = body
	} else if json.Unmarshal([]byte(r.s[start:r.i]), s) != nil {
		r.fail()
	}
}

// number returns the next number literal in JSON's grammar, restricted
// to an optional minus and digits when integer is set.
func (r *reader) number(integer bool) string {
	r.peek()
	s, start := r.s, r.i
	i := start
	if i < len(s) && s[i] == '-' {
		i++
	}
	digits := func(i int) int {
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digits(i)
	default:
		r.fail()
		return ""
	}
	if !integer && i < len(s) && s[i] == '.' {
		if i = digits(i + 1); s[i-1] == '.' {
			r.fail()
			return ""
		}
	}
	if !integer && i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			r.fail()
			return ""
		}
		i = j
	}
	r.i = i
	return s[start:i]
}

// int and float parse as encoding/json does; a literal out of range is
// an error there, so it fails here. int parses a run of at most 18
// digits with no leading zero inline, and hands any other literal to
// strconv.
func (r *reader) int(n *int) {
	r.peek()
	s, start := r.s, r.i
	i, v := start, uint64(0)
	for ; i < len(s) && i-start < 18 && '0' <= s[i] && s[i] <= '9'; i++ {
		v = v*10 + uint64(s[i]-'0')
	}
	if i > start && (s[start] != '0' || i == start+1) && (i == len(s) || s[i] < '0' || s[i] > '9') && v <= math.MaxInt {
		r.i = i
		*n = int(v)
		return
	}
	if lit := r.number(true); !r.bad {
		v, err := strconv.ParseInt(lit, 10, strconv.IntSize)
		if err != nil {
			r.fail()
			return
		}
		*n = int(v)
	}
}

func (r *reader) float(f *float64) {
	if lit := r.number(false); !r.bad {
		v, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			r.fail()
			return
		}
		*f = v
	}
}

func (r *reader) bool(v *bool) {
	switch r.peek() {
	case 't':
		r.literal("true")
		*v = true
	case 'f':
		r.literal("false")
		*v = false
	default:
		r.fail()
	}
}
