package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// responseTypes maps each v1 endpoint to its response document.
var responseTypes = map[string]reflect.Type{
	"explain":   reflect.TypeFor[ExplainResponse](),
	"group":     reflect.TypeFor[GroupResponse](),
	"refine":    reflect.TypeFor[RefinementsResponse](),
	"drill":     reflect.TypeFor[DrillResponse](),
	"evolution": reflect.TypeFor[EvolutionResponse](),
	"browse":    reflect.TypeFor[BrowseResponse](),
}

// newResponse returns a pointer to a zero response document for a v1
// request path.
func newResponse(t testing.TB, p string) any {
	t.Helper()
	p, _, _ = strings.Cut(p, "?")
	typ, ok := responseTypes[path.Base(p)]
	if !ok {
		t.Fatalf("no response type for %s", p)
	}
	return reflect.New(typ).Interface()
}

// jsonEncode is the reference: what json.NewEncoder writes for v.
func jsonEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// TestV1ContractBytesMatchEncodingJSON pins what the scrubbed golden
// files cannot see: key order, float formatting and escaping. Every
// contract body must be byte for byte what json.NewEncoder writes for
// the document it decodes to, and the four read responses must decode
// on the fast path to what encoding/json decodes.
func TestV1ContractBytesMatchEncodingJSON(t *testing.T) {
	for _, c := range contractCases {
		t.Run(c.name, func(t *testing.T) {
			code, body := get(t, c.path)
			if code != 200 {
				t.Fatalf("status %d: %s", code, body)
			}
			want := newResponse(t, c.path)
			if err := json.Unmarshal([]byte(body), want); err != nil {
				t.Fatal(err)
			}
			if enc := jsonEncode(t, want); string(enc) != body {
				t.Fatalf("body differs from encoding/json:\n--- got\n%s--- encoding/json\n%s", body, enc)
			}
			switch want.(type) {
			case *ExplainResponse, *GroupResponse, *RefinementsResponse, *DrillResponse:
				got := newResponse(t, c.path)
				if !decodeFast([]byte(body), got) {
					t.Fatal("fast path rejected a server body")
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fast path decoded\n%+v\nencoding/json decoded\n%+v", got, want)
				}
			}
		})
	}
}

var (
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 5e-324,
		math.MaxFloat64, 3, -42, 0.1, 123456789, 1.5e300, 2.5e-300, 0.30000000000000004,
	}
	edgeStrings = []string{
		"", "<a&b>", "line\u2028sep\u2029para", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"bad\xffutf8\xc3", `quote"back\slash`, "♂ · 25-34", "\ufffd", "state=CA,gender=male",
	}
)

// edgeDocs builds response documents that carry every edge value, plus
// nil and empty slices and a nil GeoJSON in each place they can occur.
func edgeDocs() []any {
	var groups []Group
	for i, f := range edgeFloats {
		s := edgeStrings[i%len(edgeStrings)]
		groups = append(groups, Group{Key: s, Phrase: s, Icons: s, State: s, Mean: f, Std: -f, Count: i*977 - 3000, Share: f})
	}
	var refs []Refinement
	for i, g := range groups {
		refs = append(refs, Refinement{Group: g, Added: edgeStrings[i%len(edgeStrings)], Delta: -g.Mean})
	}
	var features []Feature
	for i, f := range edgeFloats {
		s := edgeStrings[i%len(edgeStrings)]
		features = append(features, Feature{
			Type:       s,
			Geometry:   Geometry{Type: s, Coordinates: [][][2]float64{{{f, -f}, {1, 2}}, {}, nil}},
			Properties: ShadeProperties{State: s, Name: s, Mean: f, Count: i, Fill: s, Label: s, Icons: s},
		})
	}
	features = append(features, Feature{})
	tasks := []TaskResult{
		{},
		{Groups: []Group{}, GeoJSON: &GeoJSON{}},
		{GeoJSON: &GeoJSON{Features: []Feature{}}},
		{Task: "SM", Objective: 1e-9, Coverage: 1, RelaxedCoverage: 0.2001, Feasible: true, Evals: 77,
			Groups: groups, GeoJSON: &GeoJSON{Type: "FeatureCollection", Features: features}},
	}
	var cities []CityStat
	var timeline []TimeBucket
	for i, f := range edgeFloats {
		s := edgeStrings[i%len(edgeStrings)]
		cities = append(cities, CityStat{City: s, Mean: f, Std: f, Count: -i})
		timeline = append(timeline, TimeBucket{Start: s, End: s, Label: s, Mean: f, Count: i})
	}
	docs := []any{
		&ExplainResponse{},
		&ExplainResponse{ItemIDs: []int{}, Tasks: []TaskResult{}},
		&ExplainResponse{Query: `movie:"Toy Story"`, ItemIDs: []int{1, -2, math.MaxInt, math.MinInt}, NumRatings: 9,
			OverallMean: 3.5, OverallStd: 1e-8, Tasks: tasks, FromCache: true, ElapsedMS: 0.042},
		&GroupResponse{},
		&GroupResponse{Histogram: []int{}, Cities: []CityStat{}, Timeline: []TimeBucket{}, Related: []Group{}, Refinements: []Refinement{}},
		&GroupResponse{Query: "q", Group: groups[2], Histogram: []int{0, 1, 2, 3, 4}, Cities: cities,
			Timeline: timeline, Related: groups, Refinements: refs},
		&RefinementsResponse{},
		&RefinementsResponse{Refinements: []Refinement{}},
		&RefinementsResponse{Query: "q", Key: "state=CA", Refinements: refs},
		&DrillResponse{},
		&DrillResponse{Query: "q", Parent: "state=CA", Result: tasks[3]},
	}
	for _, s := range edgeStrings {
		docs = append(docs, &RefinementsResponse{Query: s, Key: s}, &DrillResponse{Query: s, Parent: s, Result: TaskResult{Task: s}})
	}
	return docs
}

// TestWireEdgeValues runs edge values through encoding/json, and its
// output back through both readers.
func TestWireEdgeValues(t *testing.T) {
	for i, doc := range edgeDocs() {
		raw := jsonEncode(t, doc)
		typ := reflect.TypeOf(doc).Elem()
		fast, want := reflect.New(typ).Interface(), reflect.New(typ).Interface()
		if err := json.Unmarshal(raw, want); err != nil {
			t.Fatal(err)
		}
		if !decodeFast(raw, fast) {
			t.Fatalf("doc %d (%T): fast path rejected encoding/json's output:\n%s", i, doc, raw)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("doc %d (%T): fast path decoded\n%+v\nencoding/json decoded\n%+v", i, doc, fast, want)
		}
	}
}

// TestWireNonFiniteIs500 pins that a NaN or infinite float still fails
// the encode, so WriteJSON answers the internal envelope with
// encoding/json's message rather than a corrupt 200.
func TestWireNonFiniteIs500(t *testing.T) {
	docs := []any{
		&ExplainResponse{OverallMean: math.NaN()},
		&GroupResponse{Related: []Group{{Share: math.Inf(1)}}},
		&RefinementsResponse{Refinements: []Refinement{{Delta: math.Inf(-1)}}},
		&DrillResponse{Result: TaskResult{GeoJSON: &GeoJSON{Features: []Feature{{Geometry: Geometry{
			Coordinates: [][][2]float64{{{0, math.NaN()}}}}}}}}},
	}
	for _, doc := range docs {
		wantErr := json.NewEncoder(&bytes.Buffer{}).Encode(doc)
		if wantErr == nil {
			t.Fatalf("%T: encoding/json accepted a non-finite float", doc)
		}
		w := httptest.NewRecorder()
		WriteJSON(w, doc)
		if w.Code != 500 {
			t.Fatalf("%T: status %d, want 500: %s", doc, w.Code, w.Body)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if want := (ErrorBody{Code: CodeInternal, Message: "encoding response: " + wantErr.Error()}); env.Error != want {
			t.Errorf("%T: envelope %+v, want %+v", doc, env.Error, want)
		}
	}
}

// FuzzDecodeResponse checks the reader against encoding/json for each of
// the four read responses: whatever the fast path accepts,
// json.Unmarshal accepts with an equal value, and DecodeResponse always
// agrees with json.Decoder on the value and on whether it fails.
//
//	go test -fuzz=FuzzDecodeResponse -fuzztime=20s -run '^$' ./internal/api/
func FuzzDecodeResponse(f *testing.F) {
	for _, name := range []string{"explain", "explain_geo_off", "group", "refine", "drill"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			f.Fatal(err)
		}
		f.Add(compact.Bytes())
	}
	for _, seed := range []string{
		`{"query":"q","QUERY":"Q"}`,
		`{"query":"q","query":"r"}`,
		`{"group":{"key":"a"},"group":{"mean":1}}`,
		`{"tasks":[{"task":"A","evals":1}],"tasks":[{"evals":2}]}`,
		`{"result":{"geojson":{"type":"X"},"geojson":{}}}`,
		`{"result":{"groups":[{"count":1.5}]}}`,
		`{"refinements":null,"key":"kA"} {}`,
		`{"query":"q","tasks":[{"task":"SM","groups":[{"key":"state=CA"`,
		`{"num_ratings":01}`,
		`{"overall_mean":-0.5e+3,"item_ids":[-0,7]}`,
		`{"item_ids":[1e2]}`,
		"{\"query\":\"bad \xff utf8\",\"key\":\"\u2028\"}",
		// The ordered-key fast path: keys out of declaration order, a key
		// repeated after a different key, an unknown key where the next
		// expected key should be, and escaped keys.
		`{"tasks":[],"overall_std":1,"query":"q","item_ids":[3]}`,
		`{"result":{"groups":[{"share":0.5,"count":2,"key":"k"}],"task":"SM"},"parent":"p","query":"q"}`,
		`{"query":"q","key":"k","query":"r"}`,
		`{"group":{"key":"a","phrase":"p","key":"b"}}`,
		`{"query":"q","item_idz":[1],"num_ratings":2}`,
		`{"query":"q","keys":"k","refinements":[]}`,
		`{"\u0071uery":"q","key":"k"}`,
		`{"query":"q","parent":"p","result":{"ta\u0073k":"SM"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[ExplainResponse](t, data)
		checkDecode[GroupResponse](t, data)
		checkDecode[RefinementsResponse](t, data)
		checkDecode[DrillResponse](t, data)
	})
}

func checkDecode[T any](t *testing.T, data []byte) {
	var fast, strict T
	if decodeFast(data, &fast) {
		if err := json.Unmarshal(data, &strict); err != nil {
			t.Fatalf("%T: fast path accepted what json.Unmarshal rejects (%v): %q", fast, err, data)
		}
		if !reflect.DeepEqual(fast, strict) {
			t.Fatalf("%T: fast path decoded %+v, json.Unmarshal %+v: %q", fast, fast, strict, data)
		}
	}
	var got, want T
	gotErr := DecodeResponse(data, &got)
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: DecodeResponse gave %+v (%v), json.Decoder %+v (%v): %q", got, got, gotErr, want, wantErr, data)
	}
}

// TestDecodeResponseOwnsItsStrings overwrites the caller's buffer after
// a fast-path decode: the decoded document shares one copy of the body,
// never the caller's bytes, so it must not change.
func TestDecodeResponseOwnsItsStrings(t *testing.T) {
	for _, name := range []string{"explain", "group", "refine", "drill"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		typ := responseTypes[name]
		want, got := reflect.New(typ).Interface(), reflect.New(typ).Interface()
		if err := json.Unmarshal(raw, want); err != nil {
			t.Fatal(err)
		}
		if !decodeFast(bytes.Clone(raw), reflect.New(typ).Interface()) {
			t.Fatalf("%s: fast path rejected the golden body", name)
		}
		if err := DecodeResponse(raw, got); err != nil {
			t.Fatal(err)
		}
		for i := range raw {
			raw[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: overwriting the decoded buffer changed the document:\n%+v", name, got)
		}
	}
}

// TestWireKeysFollowDeclarationOrder checks each type's key list against
// its struct tags: the reader tries keys in list order, and a read
// method's switch cases are indices into the list.
func TestWireKeysFollowDeclarationOrder(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{ExplainResponse{}, explainKeys},
		{TaskResult{}, taskKeys},
		{Group{}, groupKeys},
		{GeoJSON{}, geoJSONKeys},
		{Feature{}, featureKeys},
		{Geometry{}, geometryKeys},
		{ShadeProperties{}, shadeKeys},
		{GroupResponse{}, groupRespKeys},
		{CityStat{}, cityKeys},
		{TimeBucket{}, bucketKeys},
		{Refinement{}, refinementKeys},
		{RefinementsResponse{}, refinementsKeys},
		{DrillResponse{}, drillKeys},
	} {
		var tags []string
		typ := reflect.TypeOf(c.v)
		for i := range typ.NumField() {
			if name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); name != "-" {
				tags = append(tags, name)
			}
		}
		if !reflect.DeepEqual(tags, c.keys) {
			t.Errorf("%T: reader keys %q, struct tags %q", c.v, c.keys, tags)
		}
	}
}

// BenchmarkWire times encoding/json's encode of live server bodies, the
// cost of a cache miss, and compares the hand-written reader with
// encoding/json on decoding them: go test -run '^$' -bench Wire ./internal/api/
func BenchmarkWire(b *testing.B) {
	for _, name := range []string{"explain", "group", "refine", "drill"} {
		var c contractCase
		for _, cc := range contractCases {
			if cc.name == name {
				c = cc
			}
		}
		_, body := get(b, c.path)
		raw := []byte(body)
		doc := newResponse(b, c.path)
		if err := json.Unmarshal(raw, doc); err != nil {
			b.Fatal(err)
		}
		typ := reflect.TypeOf(doc).Elem()
		b.Run(name+"/encode/json", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for b.Loop() {
				_ = json.NewEncoder(&bytes.Buffer{}).Encode(doc)
			}
		})
		b.Run(name+"/decode/json", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for b.Loop() {
				_ = json.NewDecoder(bytes.NewReader(raw)).Decode(reflect.New(typ).Interface())
			}
		})
		b.Run(name+"/decode/wire", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for b.Loop() {
				_ = DecodeResponse(raw, reflect.New(typ).Interface())
			}
		})
	}
}
