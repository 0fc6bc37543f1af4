package maprat

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// snapshotPair opens the same generated dataset twice: once directly
// (the text-equivalent path: Generate → Open joins and indexes from
// scratch) and once through a written-then-mapped snapshot. Every
// differential test below must observe zero divergence between the two.
func snapshotPair(t *testing.T) (direct, snapped *Engine) {
	t.Helper()
	cfg := SmallGenConfig()
	cfg.Users = 400
	cfg.Movies = 160
	cfg.Ratings = 10_000
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err = Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pair.msnap")
	if err := WriteSnapshot(path, ds, SnapshotMeta{Source: "generated", Provenance: cfg.Provenance()}); err != nil {
		t.Fatal(err)
	}
	snapped, err = OpenSnapshot(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snapped.Close() })
	return direct, snapped
}

// TestSnapshotMiningIdentity is the format's correctness bar: a
// snapshot-opened engine must produce byte-identical mining results to
// an engine that joined the same dataset from scratch, and report the
// same fingerprint (so ETags agree across the two server boot paths).
func TestSnapshotMiningIdentity(t *testing.T) {
	direct, snapped := snapshotPair(t)

	if direct.Fingerprint() != snapped.Fingerprint() {
		t.Fatalf("fingerprints diverge: direct %016x, snapshot %016x",
			direct.Fingerprint(), snapped.Fingerprint())
	}

	queries := []string{
		`movie:"Toy Story"`,
		`genre:Drama`,
		`genre:Comedy`,
	}
	for _, qs := range queries {
		q1, err := direct.ParseQuery(qs)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", qs, err)
		}
		q2, err := snapped.ParseQuery(qs)
		if err != nil {
			t.Fatalf("snapshot ParseQuery(%q): %v", qs, err)
		}
		ex1, err1 := direct.ExplainContext(t.Context(), ExplainRequest{Query: q1})
		ex2, err2 := snapped.ExplainContext(t.Context(), ExplainRequest{Query: q2})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q: direct err=%v, snapshot err=%v", qs, err1, err2)
		}
		if err1 != nil {
			continue
		}
		// Byte-level comparison over the serialized result, with the
		// non-deterministic fields (timing, cache provenance) zeroed.
		ex1.Elapsed, ex2.Elapsed = 0, 0
		ex1.FromCache, ex2.FromCache = false, false
		b1, err := json.Marshal(ex1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := json.Marshal(ex2)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Errorf("%q: mining results diverge\ndirect:   %.400s\nsnapshot: %.400s", qs, b1, b2)
		}
	}

	// The exploration surface runs over the item index and the per-state
	// browse aggregates — pin those too.
	lo1, hi1 := direct.TimeRange()
	lo2, hi2 := snapped.TimeRange()
	if lo1 != lo2 || hi1 != hi2 {
		t.Errorf("time ranges diverge: direct [%d,%d], snapshot [%d,%d]", lo1, hi1, lo2, hi2)
	}
	s1, _ := direct.BrowseStatesAt(0)
	s2, _ := snapped.BrowseStatesAt(0)
	b1, _ := json.Marshal(s1)
	b2, _ := json.Marshal(s2)
	if string(b1) != string(b2) {
		t.Error("browse states diverge between direct and snapshot engines")
	}
}

// TestOpenSnapshotMissing pins the open error for a path that does not
// exist — the server must fail fast, not mount an empty dataset.
func TestOpenSnapshotMissing(t *testing.T) {
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "nope.msnap"), nil); err == nil {
		t.Fatal("OpenSnapshot of a missing file succeeded")
	}
}

// TestEngineCloseIdempotent: Close on a snapshot engine releases the
// mapping once; a second Close and a Close on a non-snapshot engine are
// no-ops.
func TestEngineCloseIdempotent(t *testing.T) {
	_, snapped := snapshotPair(t)
	if err := snapped.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := snapped.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	e := testEngine(t)
	if err := e.Close(); err != nil {
		t.Fatalf("close of a non-snapshot engine: %v", err)
	}
}
