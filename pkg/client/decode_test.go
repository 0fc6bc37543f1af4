package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestReadResponsesDecodeLikeEncodingJSON serves canned bodies in shapes
// the server never writes and checks that Explain, Group, Refine and
// Drill return exactly what json.NewDecoder(resp.Body).Decode gives for
// the same body: the same document, or an error when it errors.
func TestReadResponsesDecodeLikeEncodingJSON(t *testing.T) {
	q := url.QueryEscape(`movie:"Toy Story"`)
	ca := url.QueryEscape("state=CA")
	endpoints := []struct {
		name  string
		live  string // GET path for a canonical body from the real server
		nulls string // a body with null where slices and structs go
		doc   func() any
		call  func(*Client) (any, error)
	}{
		{
			"explain", "/api/v1/explain?q=" + q + "&k=2",
			`{"query":"q","item_ids":null,"tasks":[{"groups":null,"geojson":null}]}`,
			func() any { return new(ExplainResponse) },
			func(c *Client) (any, error) { return c.Explain(context.Background(), Params{Q: "q"}) },
		},
		{
			"group", "/api/v1/group?q=" + q + "&key=" + ca + "&buckets=4&limit=3",
			`{"query":"q","group":null,"histogram":null,"cities":null,"timeline":null,"related":null,"refinements":null}`,
			func() any { return new(GroupResponse) },
			func(c *Client) (any, error) { return c.Group(context.Background(), Params{Q: "q"}) },
		},
		{
			"refine", "/api/v1/refine?q=" + q + "&key=" + ca + "&limit=5",
			`{"query":"q","key":"state=CA","refinements":null}`,
			func() any { return new(RefinementsResponse) },
			func(c *Client) (any, error) { return c.Refine(context.Background(), Params{Q: "q"}) },
		},
		{
			"drill", "/api/v1/drill?q=" + q + "&key=" + ca + "&k=2",
			`{"query":"q","result":{"groups":null,"geojson":null}}`,
			func() any { return new(DrillResponse) },
			func(c *Client) (any, error) { return c.Drill(context.Background(), Params{Q: "q"}) },
		},
	}

	var mu sync.Mutex
	var served []byte
	canned := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(served)
	}))
	defer canned.Close()
	c, err := New(canned.URL, WithRetry(1, 0))
	if err != nil {
		t.Fatal(err)
	}

	for _, e := range endpoints {
		resp, err := http.Get(testServer(t).URL + e.live)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: status %d, %v", e.name, resp.StatusCode, err)
		}
		var sorted any // a map re-marshals with its keys sorted
		if err := json.Unmarshal(body, &sorted); err != nil {
			t.Fatal(err)
		}
		reordered, err := json.Marshal(sorted)
		if err != nil {
			t.Fatal(err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, "\n ", "\t"); err != nil {
			t.Fatal(err)
		}
		variants := map[string][]byte{
			"canonical":      body,
			"reordered keys": reordered,
			"unknown field":  append([]byte(`{"zz_unknown":[1,{"a":null}],`), body[1:]...),
			"KEY spelling":   bytes.ReplaceAll(body, []byte(`"key":`), []byte(`"KEY":`)),
			"nulls":          []byte(e.nulls),
			"escapes":        bytes.ReplaceAll(body, []byte(`":"`), []byte(`":"\u00e9\/\ud83d\ude00`)),
			"invalid UTF-8":  bytes.ReplaceAll(body, []byte(`":"`), []byte("\":\"\xff")),
			"whitespace":     append(append([]byte(" \r\n"), indented.Bytes()...), "\n\t "...),
			"trailing value": slices.Concat(body, []byte(`{"query":"other"}`)),
			"trailing junk":  slices.Concat(body, []byte(` garbage`)),
			"truncated":      body[:len(body)/2],
			"wrong kind":     bytes.Replace(body, []byte(`"query":"`), []byte(`"query":7,"zz":"`), 1),
		}
		for name, v := range variants {
			want := e.doc()
			wantErr := json.NewDecoder(bytes.NewReader(v)).Decode(want)
			mu.Lock()
			served = v
			mu.Unlock()
			got, gotErr := e.call(c)
			if (gotErr == nil) != (wantErr == nil) {
				t.Errorf("%s, %s: error %v, encoding/json %v", e.name, name, gotErr, wantErr)
				continue
			}
			if wantErr == nil && !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: decoded\n%+v\nencoding/json decoded\n%+v", e.name, name, got, want)
			}
		}
	}
}
