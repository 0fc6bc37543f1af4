package api

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzDecodeParams drives arbitrary GET query strings and POST JSON
// bodies through DecodeParams and every Params validator the handlers
// call. Neither step may panic, and every failure must be one the
// transport maps to a 4xx: a bad request, or the decoder's own 413/405.
// Anything else would surface as a 500 for what is a client error.
//
//	go test -fuzz=FuzzDecodeParams -fuzztime=20s -run '^$' ./internal/api/
func FuzzDecodeParams(f *testing.F) {
	for _, c := range decoderParityCases {
		f.Add(encodeQuery(c.query), c.body)
	}
	for _, c := range decoderBadKnobCases {
		f.Add(encodeQuery(c.query), c.body)
	}
	for _, q := range decoderMalformedQueries {
		f.Add(encodeQuery(q), `{"q":"genre:Drama","coverage_":0.5}`)
	}
	for _, body := range decoderTrailingBodies {
		f.Add("", body)
	}
	f.Fuzz(func(t *testing.T, rawQuery, body string) {
		get := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: "/api/v1/explain", RawQuery: rawQuery},
			Header: http.Header{},
		}
		post := httptest.NewRequest(http.MethodPost, "/api/v1/explain", strings.NewReader(body))
		for _, r := range []*http.Request{get, post} {
			p, err := DecodeParams(r)
			if err != nil {
				checkClientError(t, r.Method, "DecodeParams", err)
				continue
			}
			_, err = p.ExplainRequest()
			checkClientError(t, r.Method, "ExplainRequest", err)
			_, err = p.GroupKey()
			checkClientError(t, r.Method, "GroupKey", err)
			_, err = p.DrillTask()
			checkClientError(t, r.Method, "DrillTask", err)
			_, err = p.RefineLimit()
			checkClientError(t, r.Method, "RefineLimit", err)
			_, err = p.TimelineBuckets()
			checkClientError(t, r.Method, "TimelineBuckets", err)
		}
	})
}

// checkClientError fails unless err is nil or a decode error the
// transport answers with a 4xx envelope.
func checkClientError(t *testing.T, method, step string, err error) {
	t.Helper()
	if err == nil || IsBadRequest(err) {
		return
	}
	var tooLarge *tooLargeError
	var badMethod *methodError
	if step == "DecodeParams" && (errors.As(err, &tooLarge) || errors.As(err, &badMethod)) {
		return
	}
	t.Fatalf("%s %s: %T %v is not a client error", method, step, err, err)
}
