package api

import (
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// rawGet issues a GET without the transport's transparent gzip handling,
// so the test observes the on-the-wire encoding.
func rawGet(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGzipGoldenUnchanged pins the compression and framing contract on
// each read op: with gzip enabled, a client that accepts it gets
// Content-Encoding: gzip and decompresses the exact golden-file payload,
// and a client that does not gets the same payload in identity bytes,
// framed by a Content-Length equal to the body's length, not chunked.
// The gzip middleware drops the identity length when it compresses.
func TestGzipGoldenUnchanged(t *testing.T) {
	eng := testEngine(t)
	h := newHandler(eng, Config{EnableGzip: true})
	ts := httptest.NewServer(h)
	defer ts.Close()

	for _, c := range contractCases {
		switch c.name {
		case "explain", "group", "refine", "drill", "evolution", "browse":
		default:
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			resp := rawGet(t, ts, c.path, nil)
			plain, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("identity: status %d, %v", resp.StatusCode, err)
			}
			if enc := resp.Header.Get("Content-Encoding"); enc != "" {
				t.Fatalf("identity request answered Content-Encoding %q", enc)
			}
			if n := strconv.Itoa(len(plain)); resp.Header.Get("Content-Length") != n || resp.ContentLength != int64(len(plain)) {
				t.Errorf("identity Content-Length %q (%d), want %s", resp.Header.Get("Content-Length"), resp.ContentLength, n)
			}
			if len(resp.TransferEncoding) != 0 {
				t.Errorf("identity Transfer-Encoding %q, want none", resp.TransferEncoding)
			}
			if string(scrub(t, string(plain))) != string(want) {
				t.Error("identity payload diverges from the golden contract")
			}

			resp = rawGet(t, ts, c.path, map[string]string{"Accept-Encoding": "gzip"})
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("gzip: status = %d", resp.StatusCode)
			}
			if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
				t.Fatalf("Content-Encoding = %q, want gzip", enc)
			}
			if vary := resp.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") {
				t.Fatalf("Vary = %q, want Accept-Encoding", vary)
			}
			if resp.ContentLength == int64(len(plain)) {
				t.Errorf("gzip response carries the identity Content-Length %d", len(plain))
			}
			zr, err := gzip.NewReader(resp.Body)
			if err != nil {
				t.Fatalf("gzip reader: %v", err)
			}
			unzipped, err := io.ReadAll(zr)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if got := string(scrub(t, string(unzipped))); got != string(want) {
				t.Errorf("decompressed payload diverges from the golden contract:\n%s", got)
			}
		})
	}

	// An explicit refusal via qvalue 0 (RFC 9110 §12.4.2) gets identity
	// bytes too.
	r := rawGet(t, ts, contractCases[0].path, map[string]string{"Accept-Encoding": "gzip;q=0"})
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if enc := r.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("gzip;q=0 request answered Content-Encoding %q", enc)
	}
}

// TestGzipCompressesErrors checks the envelope path is encoded too — the
// decision is per-response, not per-handler outcome.
func TestGzipCompressesErrors(t *testing.T) {
	eng := testEngine(t)
	h := newHandler(eng, Config{EnableGzip: true})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp := rawGet(t, ts, "/api/v1/explain", map[string]string{"Accept-Encoding": "gzip"})
	defer resp.Body.Close()
	if resp.StatusCode != 400 || resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("error response: status=%d enc=%q, want 400 gzip", resp.StatusCode, resp.Header.Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if envelopeCode(t, string(body)) != CodeBadRequest {
		t.Fatalf("decompressed envelope: %s", body)
	}
}

// TestETagConditionalRequests pins the conditional-request contract on
// the deterministic GET endpoints: a strong tag on 200, a 304 with no
// body on If-None-Match, different tags for different requests, and no
// tag on error responses.
func TestETagConditionalRequests(t *testing.T) {
	ts := testServer(t)
	path := "/api/v1/explain?q=" + url.QueryEscape(`movie:"Toy Story"`) + "&k=2"

	resp := rawGet(t, ts, path, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tag := resp.Header.Get("ETag")
	if resp.StatusCode != 200 || tag == "" {
		t.Fatalf("first GET: status=%d etag=%q", resp.StatusCode, tag)
	}
	if !strings.HasPrefix(tag, `"`) || strings.HasPrefix(tag, "W/") {
		t.Fatalf("tag %q is not a strong entity tag", tag)
	}

	// A conditional revalidation: 304, empty body, no mining.
	mines := testEngine(t).MineCount()
	resp = rawGet(t, ts, path, map[string]string{"If-None-Match": tag})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional GET: status=%d body=%q, want 304 empty", resp.StatusCode, body)
	}
	if got := resp.Header.Get("ETag"); got != tag {
		t.Fatalf("304 ETag = %q, want %q", got, tag)
	}
	if after := testEngine(t).MineCount(); after != mines {
		t.Fatalf("revalidation ran the pipeline: mines %d -> %d", mines, after)
	}

	// The wildcard is not honored (it would 304 even invalid requests,
	// since the short-circuit runs before validation); a stale tag
	// re-serves the representation.
	resp = rawGet(t, ts, path, map[string]string{"If-None-Match": "*"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("wildcard: status=%d, want 200 (wildcard unsupported)", resp.StatusCode)
	}
	resp = rawGet(t, ts, "/api/v1/explain", map[string]string{"If-None-Match": "*"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("wildcard on an invalid request: status=%d, want 400", resp.StatusCode)
	}
	resp = rawGet(t, ts, path, map[string]string{"If-None-Match": `"stale"`})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stale tag: status=%d, want 200", resp.StatusCode)
	}

	// Different knobs, different tag.
	resp = rawGet(t, ts, "/api/v1/explain?q="+url.QueryEscape(`movie:"Toy Story"`)+"&k=3", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if other := resp.Header.Get("ETag"); other == "" || other == tag {
		t.Fatalf("k=3 tag %q should differ from k=2 tag %q", other, tag)
	}

	// Errors carry no tag.
	resp = rawGet(t, ts, "/api/v1/explain", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("ETag"); resp.StatusCode != 400 || got != "" {
		t.Fatalf("error response: status=%d etag=%q, want 400 without a tag", resp.StatusCode, got)
	}
}

// TestEveryReadOpHasETag runs the conditional-GET contract over the whole
// op table: a GET of every read op answers 200 with an ETag, and the same
// GET with If-None-Match answers 304. The write path, which is not an op,
// answers without a tag.
func TestEveryReadOpHasETag(t *testing.T) {
	ts := testServer(t)
	for _, name := range opNames {
		t.Run(name, func(t *testing.T) {
			path, ok := readPaths[name]
			if !ok {
				t.Fatalf("no request for op %q in the table", name)
			}
			resp := rawGet(t, ts, path, nil)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			tag := resp.Header.Get("ETag")
			if resp.StatusCode != http.StatusOK || tag == "" {
				t.Fatalf("GET: status=%d etag=%q, want 200 with a tag", resp.StatusCode, tag)
			}
			resp = rawGet(t, ts, path, map[string]string{"If-None-Match": tag})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotModified {
				t.Fatalf("conditional GET: status=%d, want 304", resp.StatusCode)
			}
		})
	}

	t.Run("ratings", func(t *testing.T) {
		ts, eng := ingestServer(t)
		resp, err := http.Post(ts.URL+"/api/v1/ratings", "application/json", strings.NewReader(appendBody(t, eng, 5)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("ETag"); resp.StatusCode != http.StatusAccepted || got != "" {
			t.Fatalf("append: status=%d etag=%q, want 202 without a tag", resp.StatusCode, got)
		}
	})
}
