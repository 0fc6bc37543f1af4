package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/snapshot"
)

// runSnap dispatches the `maprat snap` subcommand family:
//
//	maprat snap pack <data-dir> <out.msnap>            — pack a MovieLens directory
//	maprat snap info <file.msnap>                      — print header, fingerprint and sections
//	maprat snap compact <in.msnap> <wal> <out.msnap>   — fold a WAL into a fresh snapshot
func runSnap(args []string) {
	if len(args) == 0 {
		log.Fatal("usage: maprat snap pack|info|compact ...")
	}
	switch args[0] {
	case "pack":
		snapPack(args[1:])
	case "info":
		snapInfo(args[1:])
	case "compact":
		if err := snapCompact(args[1:]); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown snap subcommand %q (want pack, info or compact)", args[0])
	}
}

func snapPack(args []string) {
	fs := flag.NewFlagSet("snap pack", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: maprat snap pack <data-dir> <out.msnap>")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	dir, out := fs.Arg(0), fs.Arg(1)

	start := time.Now()
	ds, err := maprat.LoadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	loadElapsed := time.Since(start)
	prov, err := maprat.DirProvenance(dir)
	if err != nil {
		log.Fatal(err)
	}
	meta := maprat.SnapshotMeta{
		Source:     "text",
		Provenance: prov,
		Extra:      map[string]string{"packed-from": dir},
	}
	start = time.Now()
	if err := maprat.WriteSnapshot(out, ds, meta); err != nil {
		log.Fatal(err)
	}
	st := ds.Stats()
	size := int64(0)
	if fi, err := os.Stat(out); err == nil {
		size = fi.Size()
	}
	log.Printf("packed %s -> %s: %d ratings / %d movies / %d users, %d bytes (load %s, pack %s)",
		dir, out, st.Ratings, st.Items, st.Users, size,
		loadElapsed.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
}

// snapCompact replays a write-ahead log over its base snapshot and packs
// the merged rating log into a fresh snapshot: the appended epochs fold
// into the new base (epoch 1), so a server restarted on the compacted
// file with an empty WAL serves the same data the old (snapshot, WAL)
// pair did. The snapshot writer joins the merged log through
// store.Join, whose Joiner WAL replay also runs (Store.JoinRating), so
// a record that WAL replay would refuse fails the compaction too. The
// provenance hash carries through and the folded epoch range is
// recorded in the meta section.
func snapCompact(args []string) error {
	fs := flag.NewFlagSet("snap compact", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: maprat snap compact <in.msnap> <wal> <out.msnap>")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 3 {
		fs.Usage()
		os.Exit(2)
	}
	in, walPath, out := fs.Arg(0), fs.Arg(1), fs.Arg(2)

	start := time.Now()
	snap, err := snapshot.Open(in)
	if err != nil {
		return err
	}
	defer snap.Close()
	// A snapshot is always base epoch 1; the WAL's records must count up
	// from there. ReadLog tolerates a torn tail exactly like server-side
	// replay, so compacting a crashed server's log keeps the same epochs
	// the restarted server would restore.
	batches, err := ingest.ReadLog(walPath, 1)
	if err != nil {
		return err
	}
	base := snap.Dataset()
	appended := 0
	ratings := make([]model.Rating, len(base.Ratings), len(base.Ratings)+64)
	copy(ratings, base.Ratings)
	for _, b := range batches {
		ratings = append(ratings, b.Ratings...)
		appended += len(b.Ratings)
	}
	ds, err := model.NewDataset(base.Users, base.Items, ratings)
	if err != nil {
		return err
	}
	lastEpoch := uint64(1 + len(batches))
	meta := maprat.SnapshotMeta{
		Source:     "compact",
		Provenance: snap.Provenance(),
		Extra: map[string]string{
			"compacted-from": in,
			"wal":            walPath,
			"epochs":         fmt.Sprintf("1-%d", lastEpoch),
		},
	}
	if err := maprat.WriteSnapshot(out, ds, meta); err != nil {
		return err
	}
	size := int64(0)
	if fi, err := os.Stat(out); err == nil {
		size = fi.Size()
	}
	log.Printf("compacted %s + %s -> %s: epochs 1-%d (%d batches, %d appended ratings, %d total), %d bytes in %s",
		in, walPath, out, lastEpoch, len(batches), appended, len(ratings), size,
		time.Since(start).Round(time.Millisecond))
	return nil
}

func snapInfo(args []string) {
	fs := flag.NewFlagSet("snap info", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: maprat snap info <file.msnap>")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)

	start := time.Now()
	snap, err := snapshot.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()
	elapsed := time.Since(start)

	h := snap.Header()
	lo, hi := snap.TimeRange()
	fmt.Printf("%s\n", path)
	fmt.Printf("  format version : %d\n", h.Version)
	fmt.Printf("  users          : %d\n", h.Users)
	fmt.Printf("  items          : %d\n", h.Items)
	fmt.Printf("  ratings        : %d\n", h.Ratings)
	fmt.Printf("  time range     : %s .. %s\n",
		time.Unix(lo, 0).UTC().Format("2006-01-02"), time.Unix(hi, 0).UTC().Format("2006-01-02"))
	fmt.Printf("  fingerprint    : %016x\n", model.Fingerprint(snap.Dataset(), lo, hi))
	fmt.Printf("  provenance     : %016x\n", h.Provenance)
	fmt.Printf("  size           : %d bytes\n", snap.Size())
	fmt.Printf("  mmap           : %v\n", snap.Mapped())
	fmt.Printf("  open           : %s\n", elapsed.Round(time.Microsecond))
	if meta := snap.Meta(); len(meta) > 0 {
		keys := make([]string, 0, len(meta))
		for k := range meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  meta:\n")
		for _, k := range keys {
			fmt.Printf("    %-12s : %s\n", k, meta[k])
		}
	}
	fmt.Printf("  sections:\n")
	for _, s := range h.Sections {
		fmt.Printf("    %-10s off=%-10d len=%-10d crc32c=%08x\n", s.Name(), s.Offset, s.Length, s.CRC)
	}
}
