package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro"
)

// E12 times e12Pairs text/snapshot open pairs. A snapshot open takes a
// few milliseconds at small scale, so one noisy open moves a short run's
// ratio by several x; the verdict on the e12Bar speedup rests on the
// spread of the per-pair ratios instead of one median.
const (
	e12Pairs = 9
	e12Bar   = 10.0
)

// E12Snapshot measures the snapshot cold path against the text cold
// path over the engine's own dataset: write both representations to a
// temp directory, then time text parse+join (LoadDir → Open) against
// snapshot open (mmap → OpenSnapshot) in alternating pairs, and verify
// the two opens agree on the dataset fingerprint. The bar (≥10×) is met
// only when the lowest per-pair speedup reaches it, not met when the
// highest falls short, and unresolved otherwise.
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
	// Each open starts after a collection, so one open's garbage is not
	// collected on the next one's clock.
	timeOpen := func(open func() (*maprat.Engine, error)) (*maprat.Engine, time.Duration) {
		runtime.GC()
		start := time.Now()
		e, err := open()
		if err != nil {
			panic(err)
		}
		return e, time.Since(start)
	}
	openText := func() (*maprat.Engine, error) {
		loaded, err := maprat.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		return maprat.Open(loaded, nil)
	}
	openSnap := func() (*maprat.Engine, error) { return maprat.OpenSnapshot(snapPath, nil) }
	var textEng, snapEng *maprat.Engine
	tText := make([]time.Duration, e12Pairs)
	tSnap := make([]time.Duration, e12Pairs)
	ratios := make([]float64, e12Pairs)
	for i := range ratios {
		if snapEng != nil {
			snapEng.Close()
		}
		if i%2 == 0 { // alternate which side opens first
			textEng, tText[i] = timeOpen(openText)
		}
		snapEng, tSnap[i] = timeOpen(openSnap)
		if i%2 == 1 {
			textEng, tText[i] = timeOpen(openText)
		}
		ratios[i] = float64(tText[i]) / float64(max(1, tSnap[i]))
	}
	defer snapEng.Close()
	slices.Sort(tText)
	slices.Sort(tSnap)
	slices.Sort(ratios)

	r.addf("")
	r.addf("%-28s %14s", fmt.Sprintf("cold path (median of %d)", e12Pairs), "open")
	r.addf("%-28s %14s", "text: LoadDir + Open", tText[e12Pairs/2].Round(time.Millisecond))
	r.addf("%-28s %14s", "snapshot: OpenSnapshot", tSnap[e12Pairs/2].Round(time.Microsecond))
	lo, med, hi := ratios[0], ratios[e12Pairs/2], ratios[e12Pairs-1]
	verdict := "unresolved"
	switch {
	case lo >= e12Bar:
		verdict = "met"
	case hi < e12Bar:
		verdict = "not met"
	}
	r.addf("open speedup: %.1fx median, %.1fx-%.1fx over %d pairs (bar: >= %.0fx, %s)",
		med, lo, hi, e12Pairs, e12Bar, verdict)

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
