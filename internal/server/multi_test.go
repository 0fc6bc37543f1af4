package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestStatszDatasets pins the /statsz datasets section on a server that
// mounts one snapshot-opened and one directly-opened dataset: each entry
// carries the mount name, its fingerprint, entity counts, source and
// open cost.
func TestStatszDatasets(t *testing.T) {
	cfg := maprat.SmallGenConfig()
	cfg.Users = 300
	cfg.Movies = 120
	cfg.Ratings = 6000
	ds, err := maprat.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := maprat.Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.msnap")
	if err := maprat.WriteSnapshot(path, ds, maprat.SnapshotMeta{Source: "generated"}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	snapped, err := maprat.OpenSnapshot(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snapped.Close()

	reg := maprat.NewRegistry()
	if err := reg.Add("live", direct, maprat.DatasetInfo{Source: "generated"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("snap", snapped, maprat.DatasetInfo{
		Source: "snapshot", Path: path, FileSize: 123, OpenDuration: time.Since(start),
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMulti(reg, Config{}))
	defer ts.Close()

	code, body := get(t, ts, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	var stats struct {
		Datasets []struct {
			Name        string  `json:"name"`
			Fingerprint string  `json:"fingerprint"`
			Users       int     `json:"users"`
			Items       int     `json:"items"`
			Ratings     int     `json:"ratings"`
			Source      string  `json:"source"`
			FileSize    int64   `json:"file_size"`
			OpenMS      float64 `json:"open_ms"`
		} `json:"datasets"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("statsz json: %v\n%s", err, body)
	}
	if len(stats.Datasets) != 2 {
		t.Fatalf("got %d dataset entries, want 2: %s", len(stats.Datasets), body)
	}
	live, snap := stats.Datasets[0], stats.Datasets[1]
	if live.Name != "live" || snap.Name != "snap" {
		t.Fatalf("mount order lost: %q, %q", live.Name, snap.Name)
	}
	// Same underlying dataset: identical fingerprints, identical counts.
	if live.Fingerprint != snap.Fingerprint || len(live.Fingerprint) != 16 {
		t.Errorf("fingerprints %q vs %q (want equal, 16 hex chars)", live.Fingerprint, snap.Fingerprint)
	}
	st := ds.Stats()
	if snap.Users != st.Users || snap.Items != st.Items || snap.Ratings != st.Ratings {
		t.Errorf("snapshot mount counts %d/%d/%d, want %d/%d/%d",
			snap.Users, snap.Items, snap.Ratings, st.Users, st.Items, st.Ratings)
	}
	if live.Source != "generated" || snap.Source != "snapshot" {
		t.Errorf("sources %q/%q, want generated/snapshot", live.Source, snap.Source)
	}
	if snap.FileSize != 123 {
		t.Errorf("file size %d, want 123", snap.FileSize)
	}
	if snap.OpenMS <= 0 {
		t.Errorf("open_ms %v, want > 0", snap.OpenMS)
	}

	// The HTML pages serve the default (first) mount.
	code, _ = get(t, ts, "/")
	if code != http.StatusOK {
		t.Fatalf("index over a multi-mount server: status %d", code)
	}
}

// TestExplainPageSelectsDataset checks the explain page serves the mount
// its request names, like the v1 endpoint: item titles come from that
// mount's catalog, and an unknown name answers 404.
func TestExplainPageSelectsDataset(t *testing.T) {
	gen := func() *maprat.Dataset {
		cfg := maprat.SmallGenConfig()
		cfg.Users, cfg.Movies, cfg.Ratings = 300, 120, 6000
		ds, err := maprat.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	first, second := gen(), gen()
	for i := range second.Items {
		second.Items[i].Title = "Second " + second.Items[i].Title
	}
	reg := maprat.NewRegistry()
	for i, ds := range []*maprat.Dataset{first, second} {
		eng, err := maprat.Open(ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add([]string{"first", "second"}[i], eng, maprat.DatasetInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewMulti(reg, Config{}))
	defer ts.Close()

	path := explainPath("genre:Drama", "dataset=second")
	code, body := get(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, code, body)
	}
	if !strings.Contains(body, "Second ") {
		t.Errorf("explain page for dataset=second lists no title of that mount:\n%s", body)
	}
	code, body = get(t, ts, explainPath("genre:Drama", "dataset=first"))
	if code != http.StatusOK || strings.Contains(body, "Second ") {
		t.Errorf("explain page for dataset=first = %d, lists the second mount's titles: %v", code, strings.Contains(body, "Second "))
	}
	if code, body := get(t, ts, explainPath("genre:Drama", "dataset=nope")); code != http.StatusNotFound {
		t.Errorf("dataset=nope = %d, want 404: %s", code, body)
	}
}

// TestBrowsePageSelectsDataset checks the browse page serves the mount its
// request names: its table lists that mount's states, and an unknown name
// answers 404.
func TestBrowsePageSelectsDataset(t *testing.T) {
	reg := maprat.NewRegistry()
	var second *maprat.Engine
	for i, name := range []string{"first", "second"} {
		cfg := maprat.SmallGenConfig()
		cfg.Users, cfg.Movies, cfg.Ratings = 300, 120, 6000
		cfg.Seed = int64(i + 1)
		ds, err := maprat.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := maprat.Open(ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(name, eng, maprat.DatasetInfo{}); err != nil {
			t.Fatal(err)
		}
		second = eng
	}
	ts := httptest.NewServer(NewMulti(reg, Config{}))
	defer ts.Close()

	code, body := get(t, ts, "/browse?dataset=second")
	if code != http.StatusOK {
		t.Fatalf("GET /browse?dataset=second = %d: %s", code, body)
	}
	states, err := second.BrowseStatesAt(0)
	if err != nil || len(states) == 0 {
		t.Fatalf("second mount's states: %v, %v", states, err)
	}
	for _, st := range states {
		row := fmt.Sprintf("<tr><td>%s</td><td>%.2f</td><td>%.2f</td><td>%d</td></tr>", st.State, st.Agg.Mean(), st.Agg.Std(), st.Agg.Count)
		if !strings.Contains(body, row) {
			t.Errorf("browse page for dataset=second lacks its row %s", row)
		}
	}
	if _, first := get(t, ts, "/browse"); first == body {
		t.Error("the default mount's browse page equals the second mount's")
	}
	if code, body := get(t, ts, "/browse?dataset=nope"); code != http.StatusNotFound {
		t.Errorf("dataset=nope = %d, want 404: %s", code, body)
	}
}
