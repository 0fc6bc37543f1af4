package snapshot

import (
	"fmt"
	"os"

	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/store"
)

// Snapshot is an opened .msnap file: the reconstructed dataset plus the
// pre-joined artifacts the store otherwise derives at open time. When the
// file is memory-mapped and the host layout is compatible, the tuple log
// and the item-index arena alias the mapped pages directly — they stay valid
// until Close, and a second process opening the same file shares the
// pages read-only.
type Snapshot struct {
	hdr    Header
	data   []byte
	mapped bool

	ds      *model.Dataset
	pj      store.Prejoined
	aliased bool
	size    int64
	meta    map[string]string
}

// Open opens a snapshot: mmap where the platform supports it, zero-copy
// aliasing where the layout allows it, and a safe copying fallback
// everywhere else (non-unix or big-endian hosts, or a misaligned buffer).
func Open(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}

	var data []byte
	mapped := false
	if fi.Size() > 0 {
		if b, ok, err := mapFile(f, fi.Size()); err == nil && ok {
			data, mapped = b, true
		}
	}
	if data == nil {
		// Copying fallback: non-unix platforms, tiny files, or an mmap
		// refused by the kernel.
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}

	s, err := decode(data, mapped)
	if err != nil {
		if mapped {
			_ = unmapFile(data)
		}
		return nil, err
	}
	s.size = fi.Size()
	return s, nil
}

// decode reconstructs the dataset and pre-joined artifacts from the raw
// snapshot bytes, verifying every checksum on the way in. The tuple log
// and the item-index arena alias data when the host layout and data's
// alignment allow it, and are decoded into fresh memory otherwise.
func decode(data []byte, mapped bool) (*Snapshot, error) {
	hdr, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	// Every record costs at least one byte, so any count beyond the file
	// size is corrupt. Rejecting here also keeps the int conversions and
	// size arithmetic below from overflowing on a hostile header.
	if n := uint64(len(data)); hdr.Users > n || hdr.Items > n || hdr.Ratings > n {
		return nil, fmt.Errorf("%w: header counts %d/%d/%d exceed the %d-byte file",
			ErrTruncated, hdr.Users, hdr.Items, hdr.Ratings, len(data))
	}
	s := &Snapshot{hdr: hdr, data: data, mapped: mapped}

	strSec, err := hdr.section(data, secStrings)
	if err != nil {
		return nil, err
	}
	strs, err := decodeStrings(strSec)
	if err != nil {
		return nil, err
	}

	userSec, err := hdr.section(data, secUsers)
	if err != nil {
		return nil, err
	}
	users, err := decodeUsers(userSec, int(hdr.Users), strs)
	if err != nil {
		return nil, err
	}
	itemSec, err := hdr.section(data, secItems)
	if err != nil {
		return nil, err
	}
	items, err := decodeItems(itemSec, int(hdr.Items), strs)
	if err != nil {
		return nil, err
	}
	tupleSec, err := hdr.section(data, secTuples)
	if err != nil {
		return nil, err
	}
	if len(tupleSec) != tupleRecordSize*int(hdr.Ratings) {
		return nil, fmt.Errorf("snapshot: tuple section is %d bytes, want %d for %d ratings",
			len(tupleSec), tupleRecordSize*int(hdr.Ratings), hdr.Ratings)
	}
	tuples, aliased := aliasTuples(tupleSec)
	if !aliased {
		tuples = decodeTuples(tupleSec)
	}
	s.pj.Tuples, s.aliased = tuples, aliased
	// The catalog is indexed first: every tuple is checked against its
	// user's joined values, and deriveRatings fills the rating log in
	// place.
	ratings := make([]model.Rating, len(tuples))
	if s.ds, err = model.NewDataset(users, items, ratings); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	// The item index is checked against the tuple log while the ratings
	// are derived from it: the two scans are independent and cost about
	// the same, so on two cores the check hides behind the derivation.
	// decode waits for the check on every path, since the caller unmaps
	// data on an error.
	idxErr := make(chan error, 1)
	go func() {
		idxSec, err := hdr.section(data, secItemIndex)
		if err == nil {
			s.pj.ItemOffsets, s.pj.ItemIndex, err = decodeItemIndex(idxSec, items, tuples)
		}
		idxErr <- err
	}()
	s.pj.Joiner = store.NewJoiner(s.ds)
	err = deriveRatings(tuples, s.pj.Joiner, ratings, &s.pj)
	if ierr := <-idxErr; err == nil {
		err = ierr
	}
	if err != nil {
		return nil, err
	}

	metaSec, err := hdr.section(data, secMeta)
	if err != nil {
		return nil, err
	}
	if s.meta, err = decodeMeta(metaSec); err != nil {
		return nil, err
	}
	return s, nil
}

// Dataset returns the reconstructed dataset. It stays valid until Close.
func (s *Snapshot) Dataset() *model.Dataset { return s.ds }

// Prejoined returns the pre-joined rating log in load order, the
// per-item time-sorted tuple index and the log's time range, each
// checked against or derived from the tuple section (the header's time
// range is not trusted), with the Joiner over the snapshot's catalog
// that checked every tuple. The tuple log and the index arena may point
// into the mapped file (Aliased reports the tuple log) and must not be
// mutated; they are invalid after Close.
func (s *Snapshot) Prejoined() store.Prejoined { return s.pj }

// Header returns the decoded header (counts, time range, provenance,
// section table).
func (s *Snapshot) Header() Header { return s.hdr }

// TimeRange returns the [min, max] rating timestamps of the tuple log.
func (s *Snapshot) TimeRange() (int64, int64) { return s.pj.MinUnix, s.pj.MaxUnix }

// Provenance returns the builder's config hash (0 = unknown).
func (s *Snapshot) Provenance() uint64 { return s.hdr.Provenance }

// Meta returns the snapshot's key=value metadata.
func (s *Snapshot) Meta() map[string]string { return s.meta }

// Mapped reports whether the file is memory-mapped (vs copied to heap).
func (s *Snapshot) Mapped() bool { return s.mapped }

// Aliased reports whether the tuple log aliases the raw file bytes
// (zero-copy) rather than having been decoded.
func (s *Snapshot) Aliased() bool { return s.aliased }

// Size returns the snapshot file's size in bytes.
func (s *Snapshot) Size() int64 { return s.size }

// Close releases the mapping. Any aliased slices (Tuples, the item-index
// arena) and, transitively, a store opened over them are invalid
// afterwards. Close is idempotent.
func (s *Snapshot) Close() error {
	data, mapped := s.data, s.mapped
	s.data, s.mapped = nil, false
	if mapped && data != nil {
		return unmapFile(data)
	}
	return nil
}

func decodeStrings(b []byte) ([]string, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: string table", ErrTruncated)
	}
	n := int(le.Uint32(b))
	if n < 1 || len(b) < 4+4*(n+1) {
		return nil, fmt.Errorf("%w: string table claims %d entries", ErrTruncated, n)
	}
	offs := b[4 : 4+4*(n+1)]
	blob := b[4+4*(n+1):]
	strs := make([]string, n)
	prev := uint32(0)
	for i := 0; i < n; i++ {
		lo, hi := le.Uint32(offs[4*i:]), le.Uint32(offs[4*(i+1):])
		if lo != prev || hi < lo || hi > uint32(len(blob)) {
			return nil, fmt.Errorf("snapshot: string table offsets corrupt at entry %d", i)
		}
		strs[i] = string(blob[lo:hi])
		prev = hi
	}
	return strs, nil
}

func strAt(strs []string, id uint32, what string) (string, error) {
	if int(id) >= len(strs) {
		return "", fmt.Errorf("snapshot: %s references string %d of %d", what, id, len(strs))
	}
	return strs[id], nil
}

func decodeUsers(b []byte, n int, strs []string) ([]model.User, error) {
	if len(b) != 19*n {
		return nil, fmt.Errorf("snapshot: user section is %d bytes, want %d for %d users", len(b), 19*n, n)
	}
	ids := b[0 : 4*n]
	genders := b[4*n : 5*n]
	ages := b[5*n : 6*n]
	occs := b[6*n : 7*n]
	zips := b[7*n : 11*n]
	states := b[11*n : 15*n]
	cities := b[15*n : 19*n]
	users := make([]model.User, n)
	for i := 0; i < n; i++ {
		zip, err := strAt(strs, le.Uint32(zips[4*i:]), "user zip")
		if err != nil {
			return nil, err
		}
		state, err := strAt(strs, le.Uint32(states[4*i:]), "user state")
		if err != nil {
			return nil, err
		}
		city, err := strAt(strs, le.Uint32(cities[4*i:]), "user city")
		if err != nil {
			return nil, err
		}
		users[i] = model.User{
			ID:         int(int32(le.Uint32(ids[4*i:]))),
			Gender:     model.Gender(genders[i]),
			Age:        model.AgeBucket(ages[i]),
			Occupation: model.Occupation(occs[i]),
			Zip:        zip,
			State:      state,
			City:       city,
		}
	}
	return users, nil
}

func decodeItems(b []byte, n int, strs []string) ([]model.Item, error) {
	if len(b) < 12*n {
		return nil, fmt.Errorf("%w: item section", ErrTruncated)
	}
	ids := b[0 : 4*n]
	years := b[4*n : 8*n]
	titles := b[8*n : 12*n]
	items := make([]model.Item, n)
	for i := 0; i < n; i++ {
		title, err := strAt(strs, le.Uint32(titles[4*i:]), "item title")
		if err != nil {
			return nil, err
		}
		items[i] = model.Item{
			ID:    int(int32(le.Uint32(ids[4*i:]))),
			Year:  int(int32(le.Uint32(years[4*i:]))),
			Title: title,
		}
	}
	rest := b[12*n:]
	for _, set := range []func(it *model.Item, list []string){
		func(it *model.Item, list []string) { it.Genres = list },
		func(it *model.Item, list []string) { it.Actors = list },
		func(it *model.Item, list []string) { it.Directors = list },
	} {
		if len(rest) < 4*(n+1) {
			return nil, fmt.Errorf("%w: item list column", ErrTruncated)
		}
		offs := rest[0 : 4*(n+1)]
		total := int(le.Uint32(offs[4*n:]))
		rest = rest[4*(n+1):]
		if len(rest) < 4*total {
			return nil, fmt.Errorf("%w: item list column ids", ErrTruncated)
		}
		idsCol := rest[0 : 4*total]
		rest = rest[4*total:]
		prev := uint32(0)
		for i := 0; i < n; i++ {
			lo, hi := le.Uint32(offs[4*i:]), le.Uint32(offs[4*(i+1):])
			if lo != prev || hi < lo || hi > uint32(total) {
				return nil, fmt.Errorf("snapshot: item list offsets corrupt at item %d", i)
			}
			prev = hi
			if hi == lo {
				continue
			}
			list := make([]string, 0, hi-lo)
			for j := lo; j < hi; j++ {
				s, err := strAt(strs, le.Uint32(idsCol[4*j:]), "item list entry")
				if err != nil {
					return nil, err
				}
				list = append(list, s)
			}
			set(&items[i], list)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes in item section", len(rest))
	}
	return items, nil
}

// deriveRatings fills ratings from the tuple log, which carries each
// rating's UserID, ItemID, Score and Unix, and in the same pass checks
// every tuple and sets pj's time range from the tuples, as store.Join
// derives it. Each tuple's rating must pass Rating.Validate, its user
// must be in the catalog, and its attribute values must equal that
// user's joined values (Joiner.UserVals), so the log is exactly the one
// store.Join builds over the catalog's own users. Those values must lie
// inside {Wildcard} ∪ [0, Cardinality): the cube and the browse
// aggregates index per-value tables by them, and group statistics a
// histogram by score, so one out of range would panic a request instead
// of failing the open. The log is grouped by user, so a user's values
// are looked up and range-checked once per run of its tuples.
func deriveRatings(tuples []cube.Tuple, j *store.Joiner, ratings []model.Rating, pj *store.Prejoined) error {
	// Wildcard is -1, so v+1 must lie in [0, Cardinality].
	var card [cube.NumAttrs]uint16
	for a := range card {
		card[a] = uint16(cube.Cardinality(cube.Attr(a)))
	}
	var (
		user int32 // the user whose joined values vals holds; IDs are positive
		vals [cube.NumAttrs]int16
	)
	for i := range tuples {
		t := &tuples[i]
		r := model.Rating{UserID: int(t.UserID), ItemID: int(t.ItemID), Score: int(t.Score), Unix: t.Unix}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("snapshot: tuple %d: %w", i, err)
		}
		if t.UserID != user {
			v, ok := j.UserVals(r.UserID)
			if !ok {
				return fmt.Errorf("snapshot: tuple %d: unknown user %d", i, r.UserID)
			}
			for a, x := range v {
				if uint16(x+1) > card[a] {
					return fmt.Errorf("snapshot: user %d has %s value %d, outside [0,%d)", r.UserID, cube.Attr(a), x, card[a])
				}
			}
			user, vals = t.UserID, v
		}
		if t.Vals != vals {
			return fmt.Errorf("snapshot: tuple %d has attribute values %v, user %d's are %v", i, t.Vals, r.UserID, vals)
		}
		ratings[i] = r
		if i == 0 || r.Unix < pj.MinUnix {
			pj.MinUnix = r.Unix
		}
		if i == 0 || r.Unix > pj.MaxUnix {
			pj.MaxUnix = r.Unix
		}
	}
	return nil
}

// decodeTuples is the copying fallback for the tuple log, used when the
// host layout rules out aliasing (big-endian, or a differently padded
// cube.Tuple) or the section is misaligned.
func decodeTuples(b []byte) []cube.Tuple {
	n := len(b) / tupleRecordSize
	tuples := make([]cube.Tuple, n)
	for i := 0; i < n; i++ {
		rec := b[i*tupleRecordSize:]
		t := &tuples[i]
		for a := 0; a < cube.NumAttrs; a++ {
			t.Vals[a] = int16(le.Uint16(rec[2*a:]))
		}
		t.Score = int8(rec[10])
		t.Unix = int64(le.Uint64(rec[16:]))
		t.UserID = int32(le.Uint32(rec[24:]))
		t.ItemID = int32(le.Uint32(rec[28:]))
	}
	return tuples
}

// decodeItemIndex returns the item index's offsets column and its flat
// arena, store.Prejoined's ItemOffsets and ItemIndex. The arena is
// aliased over the file bytes when possible, so the store's per-item
// runs cost no copies. Every entry must be a tuple of its own item, and
// each item's run must be strictly ascending in (Unix, index) — the
// order the store's window search relies on.
func decodeItemIndex(b []byte, items []model.Item, tuples []cube.Tuple) (offsets, arena []int32, err error) {
	n, ratings := len(items), len(tuples)
	want := 4*(n+1) + 4*ratings
	if len(b) != want {
		return nil, nil, fmt.Errorf("snapshot: item index is %d bytes, want %d", len(b), want)
	}
	offBytes := b[0 : 4*(n+1)]
	arenaBytes := b[4*(n+1):]
	arena, ok := aliasInt32(arenaBytes)
	if !ok {
		arena = make([]int32, ratings)
		for i := range arena {
			arena[i] = int32(le.Uint32(arenaBytes[4*i:]))
		}
	}
	offsets = make([]int32, n+1)
	for i := 0; i < n; i++ {
		lo, hi := le.Uint32(offBytes[4*i:]), le.Uint32(offBytes[4*(i+1):])
		if lo != uint32(offsets[i]) || hi < lo || hi > uint32(ratings) {
			return nil, nil, fmt.Errorf("snapshot: item index offsets corrupt at item %d", i)
		}
		offsets[i+1] = int32(hi)
		if err := checkItemRun(arena[lo:hi], tuples, items[i].ID, lo); err != nil {
			return nil, nil, err
		}
	}
	if int(offsets[n]) != ratings {
		return nil, nil, fmt.Errorf("snapshot: item index covers %d of %d tuples", offsets[n], ratings)
	}
	return offsets, arena, nil
}

// checkItemRun validates one item's run of the index arena (starting at
// arena entry base): every entry points into the tuple log, at a tuple of
// this item, in strictly ascending (Unix, index) order.
func checkItemRun(run []int32, tuples []cube.Tuple, itemID int, base uint32) error {
	prevIdx, prevUnix := int32(-1), int64(0)
	for k, v := range run {
		if v < 0 || int(v) >= len(tuples) {
			return fmt.Errorf("snapshot: item index entry %d is %d, outside the %d-tuple log", int(base)+k, v, len(tuples))
		}
		t := &tuples[v]
		if int(t.ItemID) != itemID {
			return fmt.Errorf("snapshot: item index entry %d (item %d) points at tuple %d of item %d", int(base)+k, itemID, v, t.ItemID)
		}
		if k > 0 && (t.Unix < prevUnix || t.Unix == prevUnix && v <= prevIdx) {
			return fmt.Errorf("snapshot: item index entry %d (item %d) breaks (time, index) order", int(base)+k, itemID)
		}
		prevIdx, prevUnix = v, t.Unix
	}
	return nil
}

func decodeMeta(b []byte) (map[string]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: meta section", ErrTruncated)
	}
	n := int(le.Uint32(b))
	b = b[4:]
	// Each entry needs at least its two length words, so a count beyond
	// len(b)/8 cannot be satisfied; bounding it here keeps a corrupt count
	// from becoming a huge allocation via the map size hint below.
	if n > len(b)/8 {
		return nil, fmt.Errorf("%w: meta section claims %d entries in %d bytes", ErrTruncated, n, len(b))
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		if len(b) < 8 {
			return nil, fmt.Errorf("%w: meta entry %d", ErrTruncated, i)
		}
		klen, vlen := int(le.Uint32(b)), int(le.Uint32(b[4:]))
		b = b[8:]
		if len(b) < klen+vlen {
			return nil, fmt.Errorf("%w: meta entry %d", ErrTruncated, i)
		}
		m[string(b[:klen])] = string(b[klen : klen+vlen])
		b = b[klen+vlen:]
	}
	return m, nil
}
