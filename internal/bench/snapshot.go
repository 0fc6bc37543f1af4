package bench

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"repro"
)

// E12Snapshot measures the snapshot cold path against the text cold
// path over the engine's own dataset: write both representations to a
// temp directory, then time text parse+join (LoadDir → Open) versus
// snapshot open (mmap → OpenSnapshot), and verify the two opens agree on
// the dataset fingerprint. The open speedup is the PR's perf bar (≥10×).
func E12Snapshot(_ context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E12", Title: "Columnar snapshot vs text cold path"}
	ds := eng.Dataset()

	tmp, err := os.MkdirTemp("", "maprat-e12-*")
	if err != nil {
		r.addf("temp dir: %v", err)
		return r
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "text")
	snapPath := filepath.Join(tmp, "data.msnap")

	wText := timeIt(1, func() {
		if err := maprat.WriteDir(dir, ds); err != nil {
			panic(err)
		}
	})
	wSnap := timeIt(1, func() {
		if err := maprat.WriteSnapshot(snapPath, ds, maprat.SnapshotMeta{Source: "bench"}); err != nil {
			panic(err)
		}
	})
	textSize := dirSize(dir)
	snapSize := int64(0)
	if fi, err := os.Stat(snapPath); err == nil {
		snapSize = fi.Size()
	}
	st := ds.Stats()
	r.addf("dataset: %d ratings / %d movies / %d users", st.Ratings, st.Items, st.Users)
	r.addf("%-28s %12s %14s", "representation", "bytes", "write")
	r.addf("%-28s %12d %14s", "text (4 .dat files)", textSize, wText.Round(time.Millisecond))
	r.addf("%-28s %12d %14s", "snapshot (.msnap)", snapSize, wSnap.Round(time.Millisecond))

	// The cold path under measure: bytes on disk → a mining-ready engine.
	var textEng, snapEng *maprat.Engine
	tText := timeIt(3, func() {
		loaded, err := maprat.LoadDir(dir)
		if err != nil {
			panic(err)
		}
		textEng, err = maprat.Open(loaded, nil)
		if err != nil {
			panic(err)
		}
	})
	tSnap := timeIt(3, func() {
		if snapEng != nil {
			snapEng.Close()
		}
		var err error
		snapEng, err = maprat.OpenSnapshot(snapPath, nil)
		if err != nil {
			panic(err)
		}
	})
	defer snapEng.Close()

	r.addf("")
	r.addf("%-28s %14s", "cold path (median of 3)", "open")
	r.addf("%-28s %14s", "text: LoadDir + Open", tText.Round(time.Millisecond))
	r.addf("%-28s %14s", "snapshot: OpenSnapshot", tSnap.Round(time.Microsecond))
	speedup := float64(tText) / float64(max(1, int(tSnap)))
	r.addf("open speedup: %.1fx (bar: >= 10x)", speedup)

	fpText, fpSnap := textEng.Fingerprint(), snapEng.Fingerprint()
	r.addf("fingerprints: text %016x, snapshot %016x, equal=%v", fpText, fpSnap, fpText == fpSnap)
	return r
}

func dirSize(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			total += fi.Size()
		}
		return nil
	})
	return total
}
