package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/model"
)

// readPaths holds one GET for every read op of the table.
var readPaths = map[string]string{
	"explain":   "/api/v1/explain?q=" + contractToyStory + "&k=2",
	"group":     "/api/v1/group?q=" + contractToyStory + "&key=" + contractCAKey + "&buckets=4&limit=3",
	"refine":    "/api/v1/refine?q=" + contractToyStory + "&key=" + contractCAKey + "&limit=5",
	"drill":     "/api/v1/drill?q=" + contractToyStory + "&key=" + contractCAKey + "&k=2",
	"evolution": "/api/v1/evolution?q=" + contractToyStory + "&from=1999&to=2001&k=2&tasks=sm",
	"browse":    "/api/v1/browse",
}

// freshServer serves a new engine over the shared test dataset, so its
// caches start cold whatever ran before.
func freshServer(t *testing.T, m maprat.Miner) *httptest.Server {
	t.Helper()
	if m == nil {
		eng, err := maprat.Open(testEngine(t).Dataset(), nil)
		if err != nil {
			t.Fatal(err)
		}
		m = eng
	}
	ts := httptest.NewServer(NewMulti(maprat.NewSingleRegistry("default", m, maprat.DatasetInfo{}), Config{}))
	t.Cleanup(ts.Close)
	return ts
}

// fetch GETs path and returns the response with its body read.
func fetch(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp := rawGet(t, ts, path, nil)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return resp, string(body)
}

// TestIdenticalRequestsIdenticalBytes: a strong ETag names one body, so
// every read op must answer two identical requests with identical bytes.
// The first request is a cold miss and the second a hit, so a per-call
// fact in the body (cache state, timing) shows as a difference.
func TestIdenticalRequestsIdenticalBytes(t *testing.T) {
	ts := freshServer(t, nil)
	for _, name := range opNames {
		t.Run(name, func(t *testing.T) {
			path, ok := readPaths[name]
			if !ok {
				t.Fatalf("no request for op %q in readPaths", name)
			}
			_, first := fetch(t, ts, path)
			_, second := fetch(t, ts, path)
			if first != second {
				t.Fatalf("two identical GETs differ:\n--- first\n%s\n--- second\n%s", first, second)
			}
		})
	}
}

// TestConcurrentFirstRequestsAgree: concurrent first requests for one
// result race to encode it and store its body; every one of them must
// answer the same bytes, and so must a later hit.
func TestConcurrentFirstRequestsAgree(t *testing.T) {
	ts := freshServer(t, nil)
	for _, name := range []string{"explain", "group", "drill"} {
		t.Run(name, func(t *testing.T) {
			bodies := make([]string, 8)
			var wg sync.WaitGroup
			for i := range bodies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Get(ts.URL + readPaths[name])
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					b, _ := io.ReadAll(resp.Body)
					bodies[i] = string(b)
				}()
			}
			wg.Wait()
			_, later := fetch(t, ts, readPaths[name])
			for i, b := range bodies {
				if b != later {
					t.Fatalf("concurrent request %d answered\n%s\nlater hit answered\n%s", i, b, later)
				}
			}
		})
	}
}

// TestExplainCacheHeaders: the per-call facts an explain body no longer
// carries go out as headers, the first request mining and the second
// answered from the result cache.
func TestExplainCacheHeaders(t *testing.T) {
	ts := freshServer(t, nil)
	for i, want := range []string{"miss", "hit"} {
		resp, _ := fetch(t, ts, readPaths["explain"])
		if got := resp.Header.Get("X-Maprat-Cache"); got != want {
			t.Errorf("request %d: X-Maprat-Cache = %q, want %q", i+1, got, want)
		}
		timing := resp.Header.Get("Server-Timing")
		dur, ok := strings.CutPrefix(timing, "total;dur=")
		if ms, err := strconv.ParseFloat(dur, 64); !ok || err != nil || ms < 0 {
			t.Errorf("request %d: Server-Timing = %q, want total;dur=<ms>", i+1, timing)
		}
	}
	// Only explain reports a per-call cache state.
	if resp, _ := fetch(t, ts, readPaths["group"]); resp.Header.Get("X-Maprat-Cache") != "" {
		t.Errorf("group answered X-Maprat-Cache %q", resp.Header.Get("X-Maprat-Cache"))
	}
}

// cellless wraps an engine and hands out copies of its results without a
// body cell, as a Miner that builds its own results would.
type cellless struct{ *maprat.Engine }

func (m cellless) ExplainContext(ctx context.Context, req maprat.ExplainRequest) (*maprat.Explanation, error) {
	ex, err := m.Engine.ExplainContext(ctx, req)
	if err == nil {
		ex.Body = nil
	}
	return ex, err
}

func (m cellless) ExploreFullContext(ctx context.Context, q maprat.Query, key maprat.Key, buckets, limit int) (*maprat.GroupExploration, error) {
	ge, err := m.Engine.ExploreFullContext(ctx, q, key, buckets, limit)
	if err == nil {
		ge.Body = nil
	}
	return ge, err
}

func (m cellless) DrillMineContext(ctx context.Context, q maprat.Query, parent maprat.Key, task maprat.Task, s maprat.Settings) (*maprat.TaskResult, error) {
	tr, err := m.Engine.DrillMineContext(ctx, q, parent, task, s)
	if err == nil {
		tr.Body = nil
	}
	return tr, err
}

// TestCelllessMinerBodies: a result without a body cell is encoded on
// every request, and its bodies equal the engine's own.
func TestCelllessMinerBodies(t *testing.T) {
	eng, err := maprat.Open(testEngine(t).Dataset(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := freshServer(t, cellless{eng})
	plain := freshServer(t, nil)
	for _, name := range opNames {
		t.Run(name, func(t *testing.T) {
			_, want := fetch(t, plain, readPaths[name])
			for range 2 {
				if _, got := fetch(t, wrapped, readPaths[name]); got != want {
					t.Fatalf("wrapped miner's body differs:\n--- got\n%s\n--- want\n%s", got, want)
				}
			}
		})
	}
}

// TestStoredBodiesFollowAppends: explain, group and drill bodies stored
// on warm hits are retired with the plan an append seals. After a batch
// that touches the query's items, each re-read equals what an engine
// with every cache off answers at the new epoch.
func TestStoredBodiesFollowAppends(t *testing.T) {
	ts, eng := ingestServer(t)
	paths := []string{readPaths["explain"], readPaths["group"], readPaths["drill"]}
	before := map[string]string{}
	for _, p := range paths {
		fetch(t, ts, p)
		_, before[p] = fetch(t, ts, p)
	}

	// A Californian's rating of Toy Story: it lands in the query's items
	// and in the state=CA group the group and drill bodies describe.
	ds := eng.Dataset()
	var user *model.User
	for i := range ds.Users {
		if ds.Users[i].State == "CA" {
			user = &ds.Users[i]
			break
		}
	}
	if user == nil {
		t.Fatal("no Californian in the dataset")
	}
	_, maxUnix := eng.TimeRange()
	batch := []RatingInput{{UserID: user.ID, ItemID: toyStoryID(t, ds), Score: 1, Unix: maxUnix + 1}}
	raw, err := json.Marshal(AppendRequest{Ratings: batch})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := postJSON(t, ts, "/api/v1/ratings", string(raw)); code != http.StatusAccepted {
		t.Fatalf("append: %d %s", code, body)
	}

	ds2, err := maprat.Generate(maprat.SmallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := maprat.DefaultOptions()
	opts.Store.CacheSize = 0
	opts.Store.PlanCacheTuples = 0
	cold, err := maprat.Open(ds2, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.EnableIngest(t.TempDir() + "/cold.wal"); err != nil {
		t.Fatal(err)
	}
	r := batch[0]
	if _, err := cold.AppendRatings(t.Context(), []model.Rating{{UserID: r.UserID, ItemID: r.ItemID, Score: r.Score, Unix: r.Unix}}); err != nil {
		t.Fatal(err)
	}
	ref := freshServer(t, cold)
	for _, p := range paths {
		_, got := fetch(t, ts, p)
		_, want := fetch(t, ref, p)
		if got != want {
			t.Errorf("GET %s after the append:\n--- got\n%s\n--- cold engine\n%s", p, got, want)
		}
		if got == before[p] {
			t.Errorf("GET %s: the append did not change the body, so the test shows nothing", p)
		}
	}
}
