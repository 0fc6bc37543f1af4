package api

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkWarmHandler times warm hits through Handler.ServeHTTP on a
// recorder, with no network in the way: an explain the result cache
// answers, and a group and a drill the plan memo answers. Each request
// is served once before the timer starts, so every timed one is a hit.
//
//	go test -run '^$' -bench WarmHandler -benchtime 2000x ./internal/api/
func BenchmarkWarmHandler(b *testing.B) {
	testEngine(b)
	for _, c := range []struct{ name, path string }{
		{"explain", "/api/v1/explain?q=" + contractToyStory + "&k=2"},
		{"group", "/api/v1/group?q=" + contractToyStory + "&key=" + contractCAKey + "&buckets=4&limit=3"},
		{"drill", "/api/v1/drill?q=" + contractToyStory + "&key=" + contractCAKey + "&k=2"},
	} {
		b.Run(c.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, c.path, nil)
			serve := func() {
				rec := httptest.NewRecorder()
				hdlMemo.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			serve()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				serve()
			}
		})
	}
}
