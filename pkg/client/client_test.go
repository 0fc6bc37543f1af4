package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/server"
)

var (
	tsOnce sync.Once
	tsData *maprat.Dataset
	tsMemo *httptest.Server
)

// testServer mounts the full MapRat server (HTML + v1) over one
// shared small engine.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	tsOnce.Do(func() {
		var err error
		tsData, err = maprat.Generate(maprat.SmallGenConfig())
		if err != nil {
			panic(err)
		}
		eng, err := maprat.Open(tsData, nil)
		if err != nil {
			panic(err)
		}
		tsMemo = httptest.NewServer(newServer(eng))
	})
	return tsMemo
}

// newServer serves eng as the sole (default) dataset.
func newServer(eng *maprat.Engine) *server.Server {
	return server.NewMulti(maprat.NewSingleRegistry("default", eng, maprat.DatasetInfo{}), server.Config{})
}

func testClient(t *testing.T, opts ...Option) *Client {
	t.Helper()
	c, err := New(testServer(t).URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// freshClient talks to a new engine over the shared test dataset, so
// its caches start cold whatever ran before.
func freshClient(t *testing.T) *Client {
	t.Helper()
	testServer(t)
	eng, err := maprat.Open(tsData, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func intp(v int) *int { return &v }

func TestNewValidatesBaseURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "/just/a/path"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
	c, err := New("http://example.test:8080/")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.url("/api/v1/browse"); got != "http://example.test:8080/api/v1/browse" {
		t.Fatalf("url joined to %q", got)
	}
}

func TestSyncRoundTrips(t *testing.T) {
	c := testClient(t)
	ctx := context.Background()
	q := `movie:"Toy Story"`

	ex, err := c.Explain(ctx, Params{Q: q, K: intp(2)})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.NumRatings == 0 || len(ex.Tasks) != 2 {
		t.Fatalf("explain payload: %+v", ex)
	}
	key := ex.Tasks[0].Groups[0].Key

	g, err := c.Group(ctx, Params{Q: q, Key: key})
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	if g.Group.Key != key || g.Group.Count == 0 {
		t.Fatalf("group payload: %+v", g.Group)
	}

	if _, err := c.Refine(ctx, Params{Q: q, Key: key}); err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if _, err := c.Drill(ctx, Params{Q: q, Key: key, K: intp(2)}); err != nil {
		t.Fatalf("Drill: %v", err)
	}

	from, to := 1999, 2000
	ev, err := c.Evolution(ctx, Params{Q: q, From: &from, To: &to, Tasks: []string{"sm"}})
	if err != nil {
		t.Fatalf("Evolution: %v", err)
	}
	if len(ev.Points) == 0 {
		t.Fatal("evolution returned no points")
	}

	b, err := c.Browse(ctx, Params{})
	if err != nil {
		t.Fatalf("Browse: %v", err)
	}
	if len(b.States) == 0 {
		t.Fatal("browse returned no states")
	}
}

// TestExplainReadsCallHeaders: an explain body carries the answer alone,
// and the SDK fills FromCache and ElapsedMS from the response headers.
func TestExplainReadsCallHeaders(t *testing.T) {
	c := freshClient(t) // cold caches, so the first call mines
	p := Params{Q: `movie:"Heat"`, K: intp(2)}
	first, err := c.Explain(t.Context(), p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Explain(t.Context(), p)
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache || !second.FromCache {
		t.Errorf("FromCache: first %v, second %v; want false then true", first.FromCache, second.FromCache)
	}
	if first.ElapsedMS <= 0 {
		t.Errorf("first call's ElapsedMS = %v, want the mining time", first.ElapsedMS)
	}

	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Maprat-Cache", "hit")
		w.Header().Add("Server-Timing", "db;desc=\"plan\";dur=9")
		w.Header().Add("Server-Timing", "cache;desc=lru, total ; dur=12.5")
		_, _ = w.Write([]byte(`{"query":"q","item_ids":[1],"num_ratings":3,"overall_mean":4,"overall_std":0,"tasks":[]}` + "\n"))
	}))
	defer fake.Close()
	fc, err := New(fake.URL)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := fc.Explain(t.Context(), Params{Q: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.FromCache || ex.ElapsedMS != 12.5 || ex.NumRatings != 3 {
		t.Errorf("decoded %+v, want from cache, 12.5 ms and 3 ratings", ex)
	}
}

// TestBrowsePinsEpoch checks Browse sends its Params: after an append, a
// browse pinned at epoch 1 returns the pre-append document, not the
// latest one.
func TestBrowsePinsEpoch(t *testing.T) {
	ds, err := maprat.Generate(maprat.SmallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EnableIngest(filepath.Join(t.TempDir(), "browse.wal")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before, err := c.Browse(ctx, Params{})
	if err != nil {
		t.Fatalf("Browse: %v", err)
	}
	_, maxUnix := eng.TimeRange()
	if _, err := c.AppendRatings(ctx, "", []RatingInput{{UserID: ds.Users[0].ID, ItemID: ds.Items[0].ID, Score: 1, Unix: maxUnix + 1}}); err != nil {
		t.Fatalf("AppendRatings: %v", err)
	}
	epoch := uint64(1)
	pinned, err := c.Browse(ctx, Params{Epoch: &epoch})
	if err != nil {
		t.Fatalf("Browse at epoch 1: %v", err)
	}
	latest, err := c.Browse(ctx, Params{})
	if err != nil {
		t.Fatalf("Browse: %v", err)
	}
	if !reflect.DeepEqual(pinned, before) {
		t.Error("browse pinned at epoch 1 differs from the pre-append document")
	}
	if reflect.DeepEqual(latest, before) {
		t.Error("the latest browse did not move after the append")
	}
}

func TestAPIErrorDecoding(t *testing.T) {
	c := testClient(t)
	_, err := c.Explain(context.Background(), Params{Q: ""})
	var ae *APIError
	if !asAPIError(err, &ae) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if ae.Status != http.StatusBadRequest || ae.Code != "bad_request" || ae.Message == "" {
		t.Fatalf("api error: %+v", ae)
	}
	if ae.Temporary() {
		t.Fatal("bad_request must not be retried")
	}
}

func asAPIError(err error, out **APIError) bool {
	for ; err != nil; err = unwrap(err) {
		if ae, ok := err.(*APIError); ok {
			*out = ae
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TestRetryBackoff pins the retry loop: transient statuses are retried
// within the budget, and the server's Retry-After hint is honored.
func TestRetryBackoff(t *testing.T) {
	var mu sync.Mutex
	fails := 2
	hits := 0
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		hits++
		if hits <= fails {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"queue_full","message":"full"}}`))
			return
		}
		w.Write([]byte(`{"query":"x"}`))
	}))
	defer fake.Close()

	c, err := New(fake.URL, WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := c.Explain(context.Background(), Params{Q: "x"})
	if err != nil {
		t.Fatalf("retries exhausted: %v", err)
	}
	if ex.Query != "x" || hits != 3 {
		t.Fatalf("response %+v after %d hits", ex, hits)
	}

	// With the budget too small, the terminal failure surfaces.
	mu.Lock()
	hits, fails = 0, 99
	mu.Unlock()
	c2, _ := New(fake.URL, WithRetry(2, time.Millisecond))
	_, err = c2.Explain(context.Background(), Params{Q: "x"})
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("got %v, want 429 after retries", err)
	}
	mu.Lock()
	if hits != 2 {
		t.Fatalf("hits = %d, want exactly the retry budget", hits)
	}
	mu.Unlock()
}

// TestJitterBounds pins the jitter contract the backoff math relies on:
// zero max draws zero, and every draw stays inside [0, max).
func TestJitterBounds(t *testing.T) {
	if got := randJitter(0); got != 0 {
		t.Errorf("randJitter(0) = %v, want 0", got)
	}
	if got := randJitter(-time.Second); got != 0 {
		t.Errorf("randJitter(-1s) = %v, want 0", got)
	}
	const max = 100 * time.Millisecond
	for i := 0; i < 256; i++ {
		if got := randJitter(max); got < 0 || got >= max {
			t.Fatalf("randJitter(%v) = %v, outside [0, max)", max, got)
		}
	}
}

// TestSleepHonorsContext: the retry backoff must select on ctx, not
// block through it — a canceled caller is released immediately.
func TestSleepHonorsContext(t *testing.T) {
	c, err := New("http://example.test", WithRetry(3, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := c.sleep(ctx, nil, 1); err != context.DeadlineExceeded {
		t.Fatalf("sleep returned %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("canceled sleep blocked for %v", d)
	}
}

// TestSleepJittersBackoffAndRetryAfter pins the two jitter shapes:
// exponential backoff draws from [d/2, d), a Retry-After hint is only
// ever stretched upward (never served early), by at most 25%.
func TestSleepJittersBackoffAndRetryAfter(t *testing.T) {
	c, err := New("http://example.test", WithRetry(3, 80*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var draws []time.Duration
	c.jitter = func(max time.Duration) time.Duration {
		draws = append(draws, max)
		return max - 1 // worst case: the largest admissible draw
	}

	// Plain exponential backoff: attempt 1 waits within [base/2, base).
	start := time.Now()
	if err := c.sleep(context.Background(), nil, 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("backoff slept %v, want >= base/2", d)
	}
	if len(draws) != 1 || draws[0] != 40*time.Millisecond {
		t.Fatalf("backoff jitter draws = %v, want [base/2]", draws)
	}

	// Retry-After overrides the computed backoff and jitters upward.
	draws = nil
	hint := &APIError{Status: http.StatusTooManyRequests, RetryAfter: 40 * time.Millisecond}
	start = time.Now()
	if err := c.sleep(context.Background(), hint, 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("Retry-After slept %v, retried before the server asked", d)
	}
	if len(draws) != 1 || draws[0] != 10*time.Millisecond {
		t.Fatalf("Retry-After jitter draws = %v, want [hint/4]", draws)
	}
}

// TestAppendRetriesOnlyAdmission pins the append retry policy: an append
// is not idempotent, so only a 429 (rejected before the engine sees the
// batch) is sent again. A lost response or a 503 returns to the caller
// after one POST, while a read against the same server still retries.
func TestAppendRetriesOnlyAdmission(t *testing.T) {
	batch := []RatingInput{{UserID: 1, ItemID: 1, Score: 5, Unix: 1100000000}}
	for _, tc := range []struct {
		name      string
		answer    func(w http.ResponseWriter, post int)
		wantOK    bool
		wantPosts int
	}{
		{"connection lost", func(w http.ResponseWriter, _ int) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}, false, 1},
		{"503 unavailable", func(w http.ResponseWriter, _ int) {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"unavailable","message":"live ingestion is disabled"}}`))
		}, false, 1},
		{"429 then 202", func(w http.ResponseWriter, post int) {
			if post == 1 {
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write([]byte(`{"error":{"code":"queue_full","message":"full"}}`))
				return
			}
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"epoch":2,"accepted":1}`))
		}, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			posts := 0
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				posts++
				n := posts
				mu.Unlock()
				w.Header().Set("Content-Type", "application/json")
				tc.answer(w, n)
			}))
			defer fake.Close()
			c, err := New(fake.URL, WithRetry(3, time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.AppendRatings(context.Background(), "", batch)
			if tc.wantOK && (err != nil || resp.Epoch != 2) {
				t.Fatalf("AppendRatings = %+v, %v; want epoch 2", resp, err)
			}
			if !tc.wantOK && err == nil {
				t.Fatal("AppendRatings succeeded, want the failure returned")
			}
			mu.Lock()
			if posts != tc.wantPosts {
				t.Errorf("server saw %d POSTs, want %d", posts, tc.wantPosts)
			}
			posts = 0
			mu.Unlock()
			if tc.wantOK {
				return
			}
			// Reads are idempotent and keep retrying the same failure.
			if _, err := c.Explain(context.Background(), Params{Q: "x"}); err == nil {
				t.Fatal("Explain succeeded against a failing server")
			}
			mu.Lock()
			if posts != 3 {
				t.Errorf("read made %d attempts, want the retry budget of 3", posts)
			}
			mu.Unlock()
		})
	}
}

// TestAppendRatingsRefusesDataset: a server serves one dataset, so a
// batch addressed to a named one fails in the client and is never sent.
func TestAppendRatingsRefusesDataset(t *testing.T) {
	var requests atomic.Int32
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"epoch":2,"accepted":1}`))
	}))
	defer fake.Close()
	c, err := New(fake.URL)
	if err != nil {
		t.Fatal(err)
	}
	batch := []RatingInput{{UserID: 1, ItemID: 1, Score: 5, Unix: 1100000000}}
	if resp, err := c.AppendRatings(context.Background(), "beta", batch); err == nil {
		t.Fatalf("AppendRatings to dataset beta = %+v, want an error", resp)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("server saw %d requests, want 0", n)
	}
}
