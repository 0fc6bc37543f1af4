package snapshot

import (
	"fmt"
	"os"

	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/store"
)

// Snapshot is an opened .msnap file: the reconstructed dataset plus the
// pre-joined artifacts the store otherwise derives at open time. The
// rating log is decoded from the tuple section into the heap. When the
// file is memory-mapped and the host layout is compatible, the
// item-index arena aliases the mapped pages directly — it stays valid
// until Close, and a second process opening the same file shares the
// pages read-only.
type Snapshot struct {
	hdr    Header
	data   []byte
	mapped bool
	// aliased is set when the item-index arena aliases data rather than
	// a decoded copy.
	aliased bool

	ds   *model.Dataset
	pj   store.Prejoined
	size int64
	meta map[string]string
}

// Open opens a snapshot: mmap where the platform supports it, zero-copy
// aliasing of the item-index arena where the layout allows it, and a
// safe copying fallback everywhere else (non-unix or big-endian hosts,
// or a misaligned buffer).
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
// snapshot bytes, verifying every checksum on the way in. The ratings
// and their reviewers' positions are decoded from the tuple records;
// the item-index arena aliases data when the host layout and data's
// alignment allow it, and is decoded into fresh memory otherwise.
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
	// The catalog is indexed first: every tuple is checked against its
	// user's joined values, and deriveRatings fills the rating log in
	// place.
	ratings := make([]model.Rating, hdr.Ratings)
	if s.ds, err = model.NewDataset(users, items, ratings); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	idxSec, err := hdr.section(data, secItemIndex)
	if err != nil {
		return nil, err
	}
	if s.pj.ItemOffsets, s.pj.ItemIndex, s.aliased, err = decodeItemIndex(idxSec, len(items), len(ratings)); err != nil {
		return nil, err
	}
	// The item index's entries are checked against the tuple records
	// while the ratings are derived from them: the two scans are
	// independent and cost about the same, so on two cores the check
	// hides behind the derivation and the reviewer positions' fill
	// after it. decode waits for the check on every path, since the
	// caller unmaps data on an error.
	idxErr := make(chan error, 1)
	go func() {
		idxErr <- checkItemRuns(s.pj.ItemOffsets, s.pj.ItemIndex, items, tupleSec)
	}()
	s.pj.Joiner = store.NewJoiner(s.ds)
	reviewers := make([]int32, len(ratings)) // each rating's user position, in log order
	if s.pj.MinUnix, s.pj.MaxUnix, err = deriveRatings(tupleSec, s.pj.Joiner, ratings, reviewers); err == nil {
		// The check may still be running: an entry outside the log is
		// skipped here and fails it.
		s.pj.ItemUsers = make([]int32, len(ratings))
		for k, p := range s.pj.ItemIndex {
			if uint(p) < uint(len(reviewers)) {
				s.pj.ItemUsers[k] = reviewers[p]
			}
		}
	}
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

// Prejoined returns the per-item time-sorted index into the dataset's
// rating log, each entry's reviewer position and the log's time range,
// each checked against or derived from the tuple section (the header's
// time range is not trusted), with the Joiner over the snapshot's
// catalog that checked every tuple. The index arena may point into the
// mapped file and must not be mutated; it is invalid after Close.
func (s *Snapshot) Prejoined() store.Prejoined { return s.pj }

// Header returns the decoded header (counts, time range, provenance,
// section table).
func (s *Snapshot) Header() Header { return s.hdr }

// TimeRange returns the [min, max] rating timestamps of the tuple records.
func (s *Snapshot) TimeRange() (int64, int64) { return s.pj.MinUnix, s.pj.MaxUnix }

// Provenance returns the builder's config hash (0 = unknown).
func (s *Snapshot) Provenance() uint64 { return s.hdr.Provenance }

// Meta returns the snapshot's key=value metadata.
func (s *Snapshot) Meta() map[string]string { return s.meta }

// Mapped reports whether the file is memory-mapped (vs copied to heap).
func (s *Snapshot) Mapped() bool { return s.mapped }

// IndexMapped reports whether the item-index arena lies in the mapped
// file's pages rather than on the heap.
func (s *Snapshot) IndexMapped() bool { return s.mapped && s.aliased }

// Size returns the snapshot file's size in bytes.
func (s *Snapshot) Size() int64 { return s.size }

// Close releases the mapping. An aliased item-index arena and,
// transitively, a store opened over it are invalid afterwards. Close is
// idempotent.
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
		id := int(le.Uint32(ids[4*i:]))
		if err := model.CheckID("user_id", id); err != nil {
			return nil, fmt.Errorf("snapshot: user %d: %w", i, err)
		}
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
			ID:         id,
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
		id := int(le.Uint32(ids[4*i:]))
		if err := model.CheckID("item_id", id); err != nil {
			return nil, fmt.Errorf("snapshot: item %d: %w", i, err)
		}
		title, err := strAt(strs, le.Uint32(titles[4*i:]), "item title")
		if err != nil {
			return nil, err
		}
		items[i] = model.Item{
			ID:    id,
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

// deriveRatings fills ratings, and each one's reviewer position in
// users, from the tuple records, which carry each rating's UserID,
// ItemID, Score and Unix, and in the same pass checks every tuple and
// returns the time range of the tuples, as store.Join derives it. Each
// tuple's rating must pass Rating.Validate, its user must be in the
// catalog, and its attribute values must equal that user's joined
// values (Joiner.User), so the log is exactly the one store.Join joins
// over the catalog's own users. Those values must lie inside {Wildcard}
// ∪ [0, Cardinality): the cube and the browse aggregates index
// per-value tables by them, and group statistics a histogram by score,
// so one out of range would panic a request instead of failing the
// open. The log is grouped by user, so a user's values are looked up
// and range-checked once per run of its tuples.
func deriveRatings(recs []byte, j *store.Joiner, ratings []model.Rating, users []int32) (minUnix, maxUnix int64, err error) {
	// Wildcard is -1, so v+1 must lie in [0, Cardinality].
	var card [cube.NumAttrs]uint16
	for a := range card {
		card[a] = uint16(cube.Cardinality(cube.Attr(a)))
	}
	var (
		user int32 // the user whose position and joined values pos and vals hold; IDs are positive
		pos  int32
		vals [cube.NumAttrs]int16
		enc  [2 * cube.NumAttrs]byte // vals as a record stores them
	)
	for i := range ratings {
		rec := record(recs, i)
		r := recordRating(rec)
		if err := r.Validate(); err != nil {
			return 0, 0, fmt.Errorf("snapshot: tuple %d: %w", i, err)
		}
		if r.UserID != user {
			p, v, ok := j.User(int(r.UserID))
			if !ok {
				return 0, 0, fmt.Errorf("snapshot: tuple %d: unknown user %d", i, r.UserID)
			}
			for a, x := range v {
				if uint16(x+1) > card[a] {
					return 0, 0, fmt.Errorf("snapshot: user %d has %s value %d, outside [0,%d)", r.UserID, cube.Attr(a), x, card[a])
				}
			}
			user, pos, vals = r.UserID, p, v
			for a, x := range v {
				le.PutUint16(enc[2*a:], uint16(x))
			}
		}
		if [len(enc)]byte(rec[:len(enc)]) != enc {
			return 0, 0, fmt.Errorf("snapshot: tuple %d has attribute values %v, user %d's are %v", i, recordVals(rec), r.UserID, vals)
		}
		ratings[i] = r
		users[i] = pos
		if i == 0 || r.Unix < minUnix {
			minUnix = r.Unix
		}
		if i == 0 || r.Unix > maxUnix {
			maxUnix = r.Unix
		}
	}
	return minUnix, maxUnix, nil
}

// record returns record i of the tuple section: one rating joined with
// its reviewer's vector, in encodeTuples's layout (the rec* offsets).
func record(recs []byte, i int) *[tupleRecordSize]byte {
	return (*[tupleRecordSize]byte)(recs[i*tupleRecordSize:])
}

// recordRating decodes the rating a tuple record carries. A stored ID
// above model.MaxID decodes negative, which Rating.Validate refuses and
// no catalog ID equals.
func recordRating(rec *[tupleRecordSize]byte) model.Rating {
	return model.Rating{
		Unix:   int64(le.Uint64(rec[recUnix:])),
		UserID: int32(le.Uint32(rec[recUserID:])),
		Score:  int8(rec[recScore]),
		ItemID: int(int32(le.Uint32(rec[recItemID:]))),
	}
}

// recordVals decodes the reviewer vector a tuple record carries.
func recordVals(rec *[tupleRecordSize]byte) (vals [cube.NumAttrs]int16) {
	for a := range vals {
		vals[a] = int16(le.Uint16(rec[2*a:]))
	}
	return vals
}

// decodeItemIndex returns the item index's offsets column and its flat
// arena, store.Prejoined's ItemOffsets and ItemIndex, for n items and
// the given number of ratings. The arena is aliased over the file bytes
// when possible, so the store's per-item runs cost no copies. The
// offsets must cut the arena into one run per item; checkItemRuns
// checks the entries.
func decodeItemIndex(b []byte, n, ratings int) (offsets, arena []int32, aliased bool, err error) {
	want := 4*(n+1) + 4*ratings
	if len(b) != want {
		return nil, nil, false, fmt.Errorf("snapshot: item index is %d bytes, want %d", len(b), want)
	}
	offBytes := b[0 : 4*(n+1)]
	arenaBytes := b[4*(n+1):]
	arena, aliased = aliasInt32(arenaBytes)
	if !aliased {
		arena = make([]int32, ratings)
		for i := range arena {
			arena[i] = int32(le.Uint32(arenaBytes[4*i:]))
		}
	}
	offsets = make([]int32, n+1)
	for i := 0; i < n; i++ {
		lo, hi := le.Uint32(offBytes[4*i:]), le.Uint32(offBytes[4*(i+1):])
		if lo != uint32(offsets[i]) || hi < lo || hi > uint32(ratings) {
			return nil, nil, false, fmt.Errorf("snapshot: item index offsets corrupt at item %d", i)
		}
		offsets[i+1] = int32(hi)
	}
	if int(offsets[n]) != ratings {
		return nil, nil, false, fmt.Errorf("snapshot: item index covers %d of %d tuples", offsets[n], ratings)
	}
	return offsets, arena, aliased, nil
}

// checkItemRuns checks every run of the item index against the tuple
// records: each entry must be a record of its own item, and each item's
// run must be strictly ascending in (Unix, index) — the order the
// store's window search relies on.
func checkItemRuns(offsets, arena []int32, items []model.Item, recs []byte) error {
	for i := range items {
		lo, hi := offsets[i], offsets[i+1]
		if err := checkItemRun(arena[lo:hi], recs, items[i].ID, uint32(lo)); err != nil {
			return err
		}
	}
	return nil
}

// checkItemRun validates one item's run of the index arena (starting at
// arena entry base): every entry points into the tuple records, at a
// tuple of this item, in strictly ascending (Unix, index) order.
func checkItemRun(run []int32, recs []byte, itemID int, base uint32) error {
	prevIdx, prevUnix := int32(-1), int64(0)
	n := len(recs) / tupleRecordSize
	for k, v := range run {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("snapshot: item index entry %d is %d, outside the %d-tuple log", int(base)+k, v, n)
		}
		r := recordRating(record(recs, int(v)))
		if r.ItemID != itemID {
			return fmt.Errorf("snapshot: item index entry %d (item %d) points at tuple %d of item %d", int(base)+k, itemID, v, r.ItemID)
		}
		if k > 0 && (r.Unix < prevUnix || r.Unix == prevUnix && v <= prevIdx) {
			return fmt.Errorf("snapshot: item index entry %d (item %d) breaks (time, index) order", int(base)+k, itemID)
		}
		prevIdx, prevUnix = v, r.Unix
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
