package api

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// The four v1 read responses (explain, group, refine, drill) are the
// bodies every interactive click moves, and their Group lists dominate
// them. Reflection-driven encoding/json on both ends of a warm read cost
// more than the engine's answer, so this file encodes and decodes those
// four types by hand. The writer reproduces json.Encoder.Encode byte for
// byte. The reader takes the writer's output, with keys in any order and
// whitespace anywhere; on any other input it gives up and encoding/json
// decodes the body, so every body decodes as encoding/json decodes it.
// No type here implements json.Marshaler or json.Unmarshaler: encoding/json
// re-scans a Marshaler's output and skips over a value before handing it
// to an Unmarshaler, which would give back most of the gain.

// encodeJSON returns v encoded exactly as json.NewEncoder(w).Encode(v)
// writes it, trailing newline included. A NaN or infinite float fails
// the encode with encoding/json's error.
func encodeJSON(v any) ([]byte, error) {
	switch v := v.(type) {
	case *ExplainResponse:
		return writeDocument(v, (*writer).explain)
	case *GroupResponse:
		return writeDocument(v, (*writer).groupResponse)
	case *RefinementsResponse:
		return writeDocument(v, (*writer).refinements)
	case *DrillResponse:
		return writeDocument(v, (*writer).drill)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// DecodeResponse decodes one response body into out, which should point
// to a zero value. The result and the error are always those of
// json.NewDecoder(bytes.NewReader(raw)).Decode(out): the four v1 read
// responses take a hand-written fast path when raw has the shape the
// server writes, and everything else goes to encoding/json.
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
		return readDocument(raw, v)
	case *GroupResponse:
		return readDocument(raw, v)
	case *RefinementsResponse:
		return readDocument(raw, v)
	case *DrillResponse:
		return readDocument(raw, v)
	}
	return false
}

// writer appends JSON to b. Each method takes the literal that precedes
// its value: the comma and key of an object field, or "" for an array
// element. No omitempty field is first in its type, so every key but
// the first can carry its leading comma.
type writer struct {
	b   []byte
	err error
}

// writeDocument writes *v as a top-level document.
func writeDocument[T any](v *T, write func(*writer, *T)) ([]byte, error) {
	if v == nil {
		return []byte("null\n"), nil
	}
	w := writer{b: make([]byte, 0, 4096)}
	write(&w, v)
	if w.err != nil {
		return nil, w.err
	}
	return append(w.b, '\n'), nil
}

func (w *writer) int(prefix string, n int) {
	w.b = strconv.AppendInt(append(w.b, prefix...), int64(n), 10)
}

func (w *writer) bool(prefix string, v bool) {
	w.b = strconv.AppendBool(append(w.b, prefix...), v)
}

// float follows encoding/json's float64 encoder: the shortest 'f' form,
// or 'e' below 1e-6 and from 1e21 up with a one-digit negative exponent
// unpadded ("1e-7", not "1e-07").
func (w *writer) float(prefix string, f float64) {
	w.b = append(w.b, prefix...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// shortEscape holds the two-character escapes encoding/json uses; other
// control bytes become \u00XX.
var shortEscape = [...]byte{'\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't', '"': '"', '\\': '\\'}

const hexDigits = "0123456789abcdef"

// str quotes s as encoding/json does by default: <, > and & are
// escaped for HTML, U+2028 and U+2029 for JavaScript, and each byte of
// invalid UTF-8 becomes U+FFFD.
func (w *writer) str(prefix, s string) {
	b := append(append(w.b, prefix...), '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			if int(c) < len(shortEscape) && shortEscape[c] != 0 {
				b = append(b, '\\', shortEscape[c])
			} else {
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	w.b = append(append(b, s[start:]...), '"')
}

// list writes s as an array, or null when s is nil.
func list[T any](w *writer, prefix string, s []T, elem func(*writer, *T)) {
	w.b = append(w.b, prefix...)
	if s == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.b = append(w.b, '[')
	for i := range s {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		elem(w, &s[i])
	}
	w.b = append(w.b, ']')
}

func intElem(w *writer, n *int) { w.int("", *n) }

func (w *writer) explain(v *ExplainResponse) {
	w.str(`{"query":`, v.Query)
	list(w, `,"item_ids":`, v.ItemIDs, intElem)
	w.int(`,"num_ratings":`, v.NumRatings)
	w.float(`,"overall_mean":`, v.OverallMean)
	w.float(`,"overall_std":`, v.OverallStd)
	list(w, `,"tasks":`, v.Tasks, (*writer).task)
	w.bool(`,"from_cache":`, v.FromCache)
	w.float(`,"elapsed_ms":`, v.ElapsedMS)
	w.b = append(w.b, '}')
}

func (w *writer) task(t *TaskResult) {
	w.str(`{"task":`, t.Task)
	w.float(`,"objective":`, t.Objective)
	w.float(`,"coverage":`, t.Coverage)
	w.float(`,"relaxed_coverage":`, t.RelaxedCoverage)
	w.bool(`,"feasible":`, t.Feasible)
	w.int(`,"evals":`, t.Evals)
	list(w, `,"groups":`, t.Groups, (*writer).group)
	if t.GeoJSON != nil {
		w.b = append(w.b, `,"geojson":`...)
		w.geojson(t.GeoJSON)
	}
	w.b = append(w.b, '}')
}

func (w *writer) group(g *Group) {
	w.str(`{"key":`, g.Key)
	w.str(`,"phrase":`, g.Phrase)
	w.str(`,"icons":`, g.Icons)
	if g.State != "" {
		w.str(`,"state":`, g.State)
	}
	w.float(`,"mean":`, g.Mean)
	w.float(`,"std":`, g.Std)
	w.int(`,"count":`, g.Count)
	w.float(`,"share":`, g.Share)
	w.b = append(w.b, '}')
}

func (w *writer) geojson(g *GeoJSON) {
	w.str(`{"type":`, g.Type)
	list(w, `,"features":`, g.Features, (*writer).feature)
	w.b = append(w.b, '}')
}

func (w *writer) feature(f *Feature) {
	w.str(`{"type":`, f.Type)
	w.str(`,"geometry":{"type":`, f.Geometry.Type)
	list(w, `,"coordinates":`, f.Geometry.Coordinates, func(w *writer, ring *[][2]float64) {
		list(w, "", *ring, func(w *writer, p *[2]float64) {
			w.float("[", p[0])
			w.float(",", p[1])
			w.b = append(w.b, ']')
		})
	})
	p := &f.Properties
	w.str(`},"properties":{"state":`, p.State)
	w.str(`,"name":`, p.Name)
	w.float(`,"mean":`, p.Mean)
	w.int(`,"count":`, p.Count)
	w.str(`,"fill":`, p.Fill)
	if p.Label != "" {
		w.str(`,"label":`, p.Label)
	}
	if p.Icons != "" {
		w.str(`,"icons":`, p.Icons)
	}
	w.b = append(w.b, "}}"...)
}

func (w *writer) groupResponse(v *GroupResponse) {
	w.str(`{"query":`, v.Query)
	w.b = append(w.b, `,"group":`...)
	w.group(&v.Group)
	list(w, `,"histogram":`, v.Histogram, intElem)
	if len(v.Cities) > 0 {
		list(w, `,"cities":`, v.Cities, func(w *writer, c *CityStat) {
			w.str(`{"city":`, c.City)
			w.float(`,"mean":`, c.Mean)
			w.float(`,"std":`, c.Std)
			w.int(`,"count":`, c.Count)
			w.b = append(w.b, '}')
		})
	}
	list(w, `,"timeline":`, v.Timeline, func(w *writer, t *TimeBucket) {
		w.str(`{"start":`, t.Start)
		w.str(`,"end":`, t.End)
		w.str(`,"label":`, t.Label)
		w.float(`,"mean":`, t.Mean)
		w.int(`,"count":`, t.Count)
		w.b = append(w.b, '}')
	})
	if len(v.Related) > 0 {
		list(w, `,"related":`, v.Related, (*writer).group)
	}
	if len(v.Refinements) > 0 {
		list(w, `,"refinements":`, v.Refinements, (*writer).refinement)
	}
	w.b = append(w.b, '}')
}

func (w *writer) refinement(r *Refinement) {
	w.b = append(w.b, `{"group":`...)
	w.group(&r.Group)
	w.str(`,"added":`, r.Added)
	w.float(`,"delta":`, r.Delta)
	w.b = append(w.b, '}')
}

func (w *writer) refinements(v *RefinementsResponse) {
	w.str(`{"query":`, v.Query)
	w.str(`,"key":`, v.Key)
	list(w, `,"refinements":`, v.Refinements, (*writer).refinement)
	w.b = append(w.b, '}')
}

func (w *writer) drill(v *DrillResponse) {
	w.str(`{"query":`, v.Query)
	w.str(`,"parent":`, v.Parent)
	w.b = append(w.b, `,"result":`...)
	w.task(&v.Result)
	w.b = append(w.b, '}')
}

// reader is a strict scanner over one JSON document. At the first byte
// it does not expect it sets bad and jumps to the end of the input, so
// every later read fails too and the caller unwinds without checks.
type reader struct {
	b   []byte
	i   int
	bad bool
}

func (r *reader) fail() {
	r.bad = true
	r.i = len(r.b)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (r *reader) peek() byte {
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; c {
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
	if !bytes.HasPrefix(r.b[r.i:], []byte(lit)) {
		r.fail()
		return
	}
	r.i += len(lit)
}

// readDocument reads one top-level value into a zeroed *v and requires
// nothing but whitespace after it. On failure *v is zeroed again, so
// nothing half-read leaks into the encoding/json fallback.
func readDocument[T any](raw []byte, v *T) bool {
	if v == nil {
		return false
	}
	var zero T
	*v = zero
	r := reader{b: raw}
	r.value(v)
	if r.peek(); !r.bad && r.i == len(r.b) {
		return true
	}
	*v = zero
	return false
}

// value reads one JSON value into what p points to. Each object type
// lists its fields as pairs of key and destination.
func (r *reader) value(p any) {
	switch p := p.(type) {
	case *string:
		r.str(p)
	case *float64:
		r.float(p)
	case *int:
		r.int(p)
	case *bool:
		r.bool(p)
	case *[2]float64:
		r.expect('[')
		r.float(&p[0])
		r.expect(',')
		r.float(&p[1])
		r.expect(']')
	case *[]int:
		array(r, p)
	case *[]TaskResult:
		array(r, p)
	case *[]Group:
		array(r, p)
	case *[]Feature:
		array(r, p)
	case *[][][2]float64:
		array(r, p)
	case *[][2]float64:
		array(r, p)
	case *[]CityStat:
		array(r, p)
	case *[]TimeBucket:
		array(r, p)
	case *[]Refinement:
		array(r, p)
	case **GeoJSON:
		if r.peek() == 'n' {
			r.literal("null")
			*p = nil
			return
		}
		*p = new(GeoJSON)
		r.object("type", &(*p).Type, "features", &(*p).Features)
	case *ExplainResponse:
		r.object("query", &p.Query, "item_ids", &p.ItemIDs, "num_ratings", &p.NumRatings,
			"overall_mean", &p.OverallMean, "overall_std", &p.OverallStd, "tasks", &p.Tasks,
			"from_cache", &p.FromCache, "elapsed_ms", &p.ElapsedMS)
	case *TaskResult:
		r.object("task", &p.Task, "objective", &p.Objective, "coverage", &p.Coverage,
			"relaxed_coverage", &p.RelaxedCoverage, "feasible", &p.Feasible, "evals", &p.Evals,
			"groups", &p.Groups, "geojson", &p.GeoJSON)
	case *Group:
		r.object("key", &p.Key, "phrase", &p.Phrase, "icons", &p.Icons, "state", &p.State,
			"mean", &p.Mean, "std", &p.Std, "count", &p.Count, "share", &p.Share)
	case *Feature:
		r.object("type", &p.Type, "geometry", &p.Geometry, "properties", &p.Properties)
	case *Geometry:
		r.object("type", &p.Type, "coordinates", &p.Coordinates)
	case *ShadeProperties:
		r.object("state", &p.State, "name", &p.Name, "mean", &p.Mean, "count", &p.Count,
			"fill", &p.Fill, "label", &p.Label, "icons", &p.Icons)
	case *GroupResponse:
		r.object("query", &p.Query, "group", &p.Group, "histogram", &p.Histogram,
			"cities", &p.Cities, "timeline", &p.Timeline, "related", &p.Related,
			"refinements", &p.Refinements)
	case *CityStat:
		r.object("city", &p.City, "mean", &p.Mean, "std", &p.Std, "count", &p.Count)
	case *TimeBucket:
		r.object("start", &p.Start, "end", &p.End, "label", &p.Label, "mean", &p.Mean, "count", &p.Count)
	case *Refinement:
		r.object("group", &p.Group, "added", &p.Added, "delta", &p.Delta)
	case *RefinementsResponse:
		r.object("query", &p.Query, "key", &p.Key, "refinements", &p.Refinements)
	case *DrillResponse:
		r.object("query", &p.Query, "parent", &p.Parent, "result", &p.Result)
	default:
		r.fail()
	}
}

// object reads an object whose fields come as pairs of key and
// destination. Keys must be plain ASCII, known and unique: encoding/json
// also folds case, unescapes keys and merges a repeated key into the
// earlier value, none of which the reader mimics.
func (r *reader) object(fields ...any) {
	r.expect('{')
	if r.peek() == '}' {
		r.i++
		return
	}
	var seen uint64
	for !r.bad {
		r.expect('"')
		start := r.i
		for r.i < len(r.b) && r.b[r.i] != '"' && r.b[r.i] != '\\' {
			r.i++
		}
		key := r.b[start:r.i]
		r.expect('"')
		r.expect(':')
		i := 0
		for i < len(fields) && string(key) != fields[i].(string) {
			i += 2
		}
		if i == len(fields) || seen&(1<<i) != 0 {
			r.fail()
			return
		}
		seen |= 1 << i
		r.value(fields[i+1])
		if r.peek() != ',' {
			r.expect('}')
			return
		}
		r.i++
	}
}

// array reads an array into *s: null gives a nil slice and [] an empty
// non-nil one, as with encoding/json.
func array[T any](r *reader, s *[]T) {
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
		r.value(&out[len(out)-1])
		if r.peek() != ',' {
			r.expect(']')
			break
		}
		r.i++
	}
	*s = out
}

// str reads a string. One that carries escapes, control bytes or invalid
// UTF-8 goes to json.Unmarshal, which also rejects the malformed ones;
// only the query is ever escaped on the wire.
func (r *reader) str(s *string) {
	if r.peek() != '"' {
		r.fail()
		return
	}
	start, plain, ascii := r.i, true, true
	i := start + 1
	for ; i < len(r.b) && r.b[i] != '"'; i++ {
		switch c := r.b[i]; {
		case c == '\\':
			i++
			plain = false
		case c < 0x20:
			plain = false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if i >= len(r.b) {
		r.fail()
		return
	}
	r.i = i + 1
	if body := r.b[start+1 : i]; plain && (ascii || utf8.Valid(body)) {
		*s = string(body)
	} else if json.Unmarshal(r.b[start:r.i], s) != nil {
		r.fail()
	}
}

// number returns the next number literal in JSON's grammar, restricted
// to an optional minus and digits when integer is set.
func (r *reader) number(integer bool) []byte {
	r.peek()
	b, start := r.b, r.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		r.fail()
		return nil
	}
	if !integer && i < len(b) && b[i] == '.' {
		if i = digits(i + 1); b[i-1] == '.' {
			r.fail()
			return nil
		}
	}
	if !integer && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			r.fail()
			return nil
		}
		i = j
	}
	r.i = i
	return b[start:i]
}

// int and float parse as encoding/json does; a literal out of range is
// an error there, so it fails here.
func (r *reader) int(n *int) {
	if lit := r.number(true); !r.bad {
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			r.fail()
			return
		}
		*n = int(v)
	}
}

func (r *reader) float(f *float64) {
	if lit := r.number(false); !r.bad {
		v, err := strconv.ParseFloat(string(lit), 64)
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
