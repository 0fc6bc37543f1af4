package snapshot

import (
	"fmt"
	"os"

	"repro/internal/cube"
	"repro/internal/model"
)

// Options tunes Open, mostly for tests and diagnostics.
type Options struct {
	// DisableMmap forces the copying fallback (the whole file is read
	// into heap memory) even where mmap is available.
	DisableMmap bool
	// DisableAlias forces the tuple log and item-index arena to be
	// decoded field-by-field instead of aliased over the raw bytes, even
	// when the in-memory layout is compatible.
	DisableAlias bool
}

// Snapshot is an opened .msnap file: the reconstructed dataset plus the
// pre-joined artifacts the store otherwise derives at open time. When the
// file is memory-mapped and the host layout is compatible, Tuples and the
// item-index arena alias the mapped pages directly — they stay valid
// until Close, and a second process opening the same file shares the
// pages read-only.
type Snapshot struct {
	hdr    Header
	data   []byte
	mapped bool

	ds         *model.Dataset
	tuples     []cube.Tuple
	itemTuples map[int][]int32
	aliased    bool
	size       int64
	meta       map[string]string
}

// Open opens a snapshot with default options: mmap where the platform
// supports it, zero-copy aliasing where the layout allows it, and a safe
// copying fallback everywhere else.
func Open(path string) (*Snapshot, error) { return OpenWith(path, Options{}) }

// OpenWith is Open with explicit options.
func OpenWith(path string, opts Options) (*Snapshot, error) {
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
	if !opts.DisableMmap && fi.Size() > 0 {
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

	s, err := decode(data, mapped, opts)
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
// snapshot bytes, verifying every checksum on the way in.
func decode(data []byte, mapped bool, opts Options) (*Snapshot, error) {
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
	if !opts.DisableAlias {
		s.tuples, s.aliased = aliasTuples(tupleSec)
	}
	if s.tuples == nil {
		s.tuples = decodeTuples(tupleSec)
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
			s.itemTuples, err = decodeItemIndex(idxSec, items, s.tuples, opts)
		}
		idxErr <- err
	}()
	ratings, err := deriveRatings(s.tuples)
	if ierr := <-idxErr; err == nil {
		err = ierr
	}
	if err != nil {
		return nil, err
	}
	if s.ds, err = model.NewDataset(users, items, ratings); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
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

// Tuples returns the pre-joined rating log in load order. When Aliased
// reports true the slice points into the mapped file and must not be
// mutated; it is invalid after Close.
func (s *Snapshot) Tuples() []cube.Tuple { return s.tuples }

// ItemTuples returns the per-item time-sorted tuple index (item ID →
// indices into Tuples). The inner slices may alias the mapped file.
func (s *Snapshot) ItemTuples() map[int][]int32 { return s.itemTuples }

// Header returns the decoded header (counts, time range, provenance,
// section table).
func (s *Snapshot) Header() Header { return s.hdr }

// TimeRange returns the [min, max] rating timestamps from the header.
func (s *Snapshot) TimeRange() (int64, int64) { return s.hdr.MinUnix, s.hdr.MaxUnix }

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

// deriveRatings builds the rating log from the tuple log, which carries
// each rating's UserID, ItemID, Score and Unix, and in the same pass
// checks every tuple: its rating must pass Rating.Validate, and its
// attribute values must lie inside {Wildcard} ∪ [0, Cardinality). The
// cube and the browse aggregates index per-value tables by those values,
// and group statistics a histogram by score, so one out of range would
// panic a request instead of failing the open. The demographic values are
// not re-joined: a log in range is trusted to be store.Join's output.
func deriveRatings(tuples []cube.Tuple) ([]model.Rating, error) {
	// Wildcard is -1, so v+1 must lie in [0, Cardinality].
	var card [cube.NumAttrs]uint16
	for a := range card {
		card[a] = uint16(cube.Cardinality(cube.Attr(a)))
	}
	ratings := make([]model.Rating, len(tuples))
	for i := range tuples {
		t := &tuples[i]
		r := model.Rating{UserID: int(t.UserID), ItemID: int(t.ItemID), Score: int(t.Score), Unix: t.Unix}
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("snapshot: tuple %d: %w", i, err)
		}
		ratings[i] = r
		for a, v := range t.Vals {
			if uint16(v+1) > card[a] {
				return nil, fmt.Errorf("snapshot: tuple %d has %s value %d, outside [0,%d)", i, cube.Attr(a), v, card[a])
			}
		}
	}
	return ratings, nil
}

// decodeTuples is the copying fallback for the tuple log, used when the
// host layout rules out aliasing (big-endian, or a differently padded
// cube.Tuple) or when Options disabled it.
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

// decodeItemIndex rebuilds the item ID → tuple-indices map by slicing
// the flat arena per the offsets column. The arena itself is aliased
// over the file bytes when possible, so the map's inner slices cost no
// copies. Every entry must be a tuple of its own item, and each item's
// run must be strictly ascending in (Unix, index) — the order the
// store's window search relies on.
func decodeItemIndex(b []byte, items []model.Item, tuples []cube.Tuple, opts Options) (map[int][]int32, error) {
	n, ratings := len(items), len(tuples)
	want := 4*(n+1) + 4*ratings
	if len(b) != want {
		return nil, fmt.Errorf("snapshot: item index is %d bytes, want %d", len(b), want)
	}
	offs := b[0 : 4*(n+1)]
	arenaBytes := b[4*(n+1):]
	var arena []int32
	if !opts.DisableAlias {
		arena, _ = aliasInt32(arenaBytes)
	}
	if arena == nil {
		arena = make([]int32, ratings)
		for i := range arena {
			arena[i] = int32(le.Uint32(arenaBytes[4*i:]))
		}
	}
	m := make(map[int][]int32, n)
	prev := uint32(0)
	for i := 0; i < n; i++ {
		lo, hi := le.Uint32(offs[4*i:]), le.Uint32(offs[4*(i+1):])
		if lo != prev || hi < lo || hi > uint32(ratings) {
			return nil, fmt.Errorf("snapshot: item index offsets corrupt at item %d", i)
		}
		prev = hi
		if hi == lo {
			continue
		}
		run := arena[lo:hi:hi]
		if err := checkItemRun(run, tuples, items[i].ID, lo); err != nil {
			return nil, err
		}
		m[items[i].ID] = run
	}
	if int(prev) != ratings {
		return nil, fmt.Errorf("snapshot: item index covers %d of %d tuples", prev, ratings)
	}
	return m, nil
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
