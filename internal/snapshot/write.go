package snapshot

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/store"
)

// Meta is the builder-supplied identity a snapshot carries beyond the
// data itself.
type Meta struct {
	// Source records how the dataset came to be: "text" (packed from a
	// MovieLens directory), "generated" (synthetic), or any other label.
	Source string
	// Provenance is the builder's config hash — for the generator a hash
	// of (GenConfig, seed), for a packed directory a hash of the source
	// files — so byte-identical inputs produce snapshots that declare the
	// same origin. Zero means unknown.
	Provenance uint64
	// Extra is carried verbatim in the meta section (sorted by key).
	Extra map[string]string
}

// WriteFile writes ds as a snapshot at path (atomically: a temp file in
// the same directory renamed into place).
func WriteFile(path string, ds *model.Dataset, meta Meta) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".msnap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, ds, meta); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Write encodes ds into the snapshot format. The whole file is assembled
// in memory first (≈60 MB at MovieLens-1M scale) so the output is a
// single sequential write with every checksum already in place.
//
// Write stores the output of store.Join, the validating demographics
// join and per-item time sort maprat.Open performs, so an engine opened
// from the snapshot is indistinguishable from one opened over the
// original dataset, and a dataset Open would refuse cannot be written.
// The format's ID and year columns are 32 bits wide, so a catalog value
// they cannot hold (checkColumns) fails the write instead of narrowing
// into another.
func Write(w io.Writer, ds *model.Dataset, meta Meta) error {
	if ds == nil {
		return fmt.Errorf("snapshot: nil dataset")
	}
	if err := checkColumns(ds); err != nil {
		return err
	}
	pj, err := store.Join(ds)
	if err != nil {
		return err
	}

	in := newInterner()
	secs := []struct {
		id   uint32
		data []byte
	}{
		{secUsers, encodeUsers(ds.Users, in)},
		{secItems, encodeItems(ds.Items, in)},
		{secTuples, encodeTuples(ds.Ratings, pj.Joiner)},
		{secItemIndex, encodeItemIndex(pj.ItemOffsets, pj.ItemIndex)},
		{secMeta, encodeMeta(meta)},
	}
	// The intern table is encoded last (every other section feeds it) but
	// stored first, so the reader resolves strings before anything else.
	secs = append([]struct {
		id   uint32
		data []byte
	}{{secStrings, in.encode()}}, secs...)

	hb := headerBytes(len(secs))
	off := alignUp(hb+4, sectionAlign)
	total := off
	sections := make([]SectionInfo, len(secs))
	for i, s := range secs {
		sections[i] = SectionInfo{
			ID:     s.id,
			CRC:    crc32.Checksum(s.data, castagnoli),
			Offset: uint64(total),
			Length: uint64(len(s.data)),
		}
		total = alignUp(total+len(s.data), sectionAlign)
	}

	out := make([]byte, total)
	copy(out[0:4], Magic)
	le.PutUint32(out[4:], Version)
	le.PutUint32(out[8:], uint32(len(secs)))
	le.PutUint64(out[16:], uint64(len(ds.Users)))
	le.PutUint64(out[24:], uint64(len(ds.Items)))
	le.PutUint64(out[32:], uint64(len(ds.Ratings)))
	le.PutUint64(out[40:], uint64(pj.MinUnix))
	le.PutUint64(out[48:], uint64(pj.MaxUnix))
	le.PutUint64(out[72:], meta.Provenance)
	for i, s := range sections {
		e := out[headerFixedBytes+i*sectionEntrySize:]
		le.PutUint32(e[0:], s.ID)
		le.PutUint32(e[4:], s.CRC)
		le.PutUint64(e[8:], s.Offset)
		le.PutUint64(e[16:], s.Length)
	}
	le.PutUint32(out[hb:], crc32.Checksum(out[:hb], castagnoli))
	for i, s := range secs {
		copy(out[sections[i].Offset:], s.data)
	}
	_, err = w.Write(out)
	return err
}

// checkColumns refuses a catalog value the format's 32-bit columns
// cannot hold: a user or item ID outside [1, model.MaxID] (what every
// text parse and snapshot open refuses too) or a year outside int32.
// Join requires every rating to name a catalog user and item, so this
// bounds the records' IDs too.
func checkColumns(ds *model.Dataset) error {
	for i := range ds.Users {
		if err := model.CheckID("user_id", ds.Users[i].ID); err != nil {
			return fmt.Errorf("snapshot: user %d: %w", i, err)
		}
	}
	for i := range ds.Items {
		it := &ds.Items[i]
		if err := model.CheckID("item_id", it.ID); err != nil {
			return fmt.Errorf("snapshot: item %d: %w", i, err)
		}
		if it.Year < math.MinInt32 || it.Year > math.MaxInt32 {
			return fmt.Errorf("snapshot: item %d: year %d outside int32", it.ID, it.Year)
		}
	}
	return nil
}

// interner assigns dense IDs to strings; ID 0 is always "".
type interner struct {
	ids  map[string]uint32
	list []string
}

func newInterner() *interner {
	return &interner{ids: map[string]uint32{"": 0}, list: []string{""}}
}

func (in *interner) id(s string) uint32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint32(len(in.list))
	in.ids[s] = id
	in.list = append(in.list, s)
	return id
}

// encode emits the intern table: count, offsets u32[count+1], blob.
func (in *interner) encode() []byte {
	blob := 0
	for _, s := range in.list {
		blob += len(s)
	}
	out := make([]byte, 0, 4+4*(len(in.list)+1)+blob)
	out = le.AppendUint32(out, uint32(len(in.list)))
	off := uint32(0)
	for _, s := range in.list {
		out = le.AppendUint32(out, off)
		off += uint32(len(s))
	}
	out = le.AppendUint32(out, off)
	for _, s := range in.list {
		out = append(out, s...)
	}
	return out
}

func encodeUsers(users []model.User, in *interner) []byte {
	n := len(users)
	out := make([]byte, 0, 19*n)
	for i := range users {
		out = le.AppendUint32(out, uint32(int32(users[i].ID)))
	}
	for i := range users {
		out = append(out, byte(users[i].Gender))
	}
	for i := range users {
		out = append(out, byte(users[i].Age))
	}
	for i := range users {
		out = append(out, byte(users[i].Occupation))
	}
	for i := range users {
		out = le.AppendUint32(out, in.id(users[i].Zip))
	}
	for i := range users {
		out = le.AppendUint32(out, in.id(users[i].State))
	}
	for i := range users {
		out = le.AppendUint32(out, in.id(users[i].City))
	}
	return out
}

// encodeItems emits the item columns: id, year, title, then the three
// string-list columns (genres, actors, directors), each as offsets
// u32[n+1] plus a flat run of string IDs.
func encodeItems(items []model.Item, in *interner) []byte {
	var out []byte
	for i := range items {
		out = le.AppendUint32(out, uint32(int32(items[i].ID)))
	}
	for i := range items {
		out = le.AppendUint32(out, uint32(int32(items[i].Year)))
	}
	for i := range items {
		out = le.AppendUint32(out, in.id(items[i].Title))
	}
	lists := []func(it *model.Item) []string{
		func(it *model.Item) []string { return it.Genres },
		func(it *model.Item) []string { return it.Actors },
		func(it *model.Item) []string { return it.Directors },
	}
	for _, get := range lists {
		total := uint32(0)
		for i := range items {
			out = le.AppendUint32(out, total)
			total += uint32(len(get(&items[i])))
		}
		out = le.AppendUint32(out, total)
		for i := range items {
			for _, s := range get(&items[i]) {
				out = le.AppendUint32(out, in.id(s))
			}
		}
	}
	return out
}

// encodeTuples emits the rating log, each rating joined with its
// reviewer's vector, as fixed 32-byte records (record and recordRating
// read them, the rec* offsets place their fields), padding zeroed. j
// has checked that every rating names a catalog user and item, whose
// IDs checkColumns bounded to the records' 32-bit columns, and the log
// is grouped by user, so each run of a user's ratings looks the user up
// once.
func encodeTuples(ratings []model.Rating, j *store.Joiner) []byte {
	out := make([]byte, tupleRecordSize*len(ratings))
	var vals [cube.NumAttrs]int16
	for i, r := range ratings {
		if i == 0 || r.UserID != ratings[i-1].UserID {
			_, vals, _ = j.User(int(r.UserID))
		}
		rec := out[i*tupleRecordSize:]
		for a, v := range vals {
			le.PutUint16(rec[2*a:], uint16(v))
		}
		rec[recScore] = byte(r.Score)
		// rec[recScore+1:recUnix] stays zero (padding).
		le.PutUint64(rec[recUnix:], uint64(r.Unix))
		le.PutUint32(rec[recUserID:], uint32(r.UserID))
		le.PutUint32(rec[recItemID:], uint32(r.ItemID))
	}
	return out
}

// encodeItemIndex emits store.Prejoined's item index as it lies in
// memory: the offsets column (u32[items+1]), then the arena.
func encodeItemIndex(offsets, arena []int32) []byte {
	out := make([]byte, 0, 4*(len(offsets)+len(arena)))
	for _, o := range offsets {
		out = le.AppendUint32(out, uint32(o))
	}
	for _, v := range arena {
		out = le.AppendUint32(out, uint32(v))
	}
	return out
}

func encodeMeta(meta Meta) []byte {
	kv := map[string]string{}
	for k, v := range meta.Extra {
		kv[k] = v
	}
	if meta.Source != "" {
		kv["source"] = meta.Source
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := le.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		out = le.AppendUint32(out, uint32(len(k)))
		out = le.AppendUint32(out, uint32(len(kv[k])))
		out = append(out, k...)
		out = append(out, kv[k]...)
	}
	return out
}
