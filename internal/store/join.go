package store

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/cube"
	"repro/internal/model"
)

// Joiner is the one validating join every rating passes on its way into
// a store. It holds each reviewer's joined attribute vector
// (cube.UserVals), built once per open and indexed by user position, so
// a rating's tuple is cube.JoinRating of the rating and its reviewer's
// vector. Join runs it over a dataset's whole log, the store over each
// appended batch, and snapshot.Open checks every stored tuple against
// its vectors, so a rating refused on one path is refused on every path.
type Joiner struct {
	ds   *model.Dataset
	vals [][cube.NumAttrs]int16 // by position in ds.Users
}

// NewJoiner builds the per-reviewer table over ds's users. The catalog
// must not change while the Joiner is in use; a store's never does.
func NewJoiner(ds *model.Dataset) *Joiner {
	j := &Joiner{ds: ds, vals: make([][cube.NumAttrs]int16, len(ds.Users))}
	for i := range ds.Users {
		j.vals[i] = cube.UserVals(&ds.Users[i])
	}
	return j
}

// join checks r — Rating.Validate, then its user, then its item — and
// returns the catalog positions of its user and its item.
func (j *Joiner) join(r model.Rating) (user int32, item int, err error) {
	if err := r.Validate(); err != nil {
		return 0, 0, err
	}
	u := j.ds.UserIndex(int(r.UserID))
	if u < 0 {
		return 0, 0, fmt.Errorf("unknown user %d", r.UserID)
	}
	it := j.ds.ItemIndex(r.ItemID)
	if it < 0 {
		return 0, 0, fmt.Errorf("unknown item %d", r.ItemID)
	}
	return int32(u), it, nil
}

// User returns the catalog position and joined attribute vector of the
// user with the given ID; ok is false when the catalog has no such user.
func (j *Joiner) User(userID int) (pos int32, vals [cube.NumAttrs]int16, ok bool) {
	u := j.ds.UserIndex(userID)
	if u < 0 {
		return 0, vals, false
	}
	return int32(u), j.vals[u], true
}

// Prejoined carries the open-time artifacts Join derives and a snapshot
// stores, all over the dataset's own rating log, which it never copies:
// the per-item time-sorted index into the log, each indexed rating's
// reviewer position beside it, and the rating time range. It also
// carries the Joiner that checked the log, whose per-reviewer table
// turns a rating and its reviewer position into a tuple; the store
// keeps it for gathers and appends.
type Prejoined struct {
	Joiner *Joiner
	// ItemIndex holds every rating's log index once, grouped by item in
	// catalog order and sorted by (Unix, index) within an item: item i's
	// run is ItemIndex[ItemOffsets[i]:ItemOffsets[i+1]], and ItemOffsets
	// has one entry per item plus one. A snapshot stores the same layout.
	ItemIndex   []int32
	ItemOffsets []int32
	// ItemUsers runs parallel to ItemIndex: ItemUsers[k] is the position
	// in ds.Users of the reviewer of rating ItemIndex[k]. A gather reads
	// it in step with the index, sequentially.
	ItemUsers []int32
	MinUnix   int64
	MaxUnix   int64
}

// ItemRun returns the runs of ItemIndex and ItemUsers of the item at
// catalog position i, capped at their length so an append to either
// copies instead of overwriting the next item's run.
func (pj *Prejoined) ItemRun(i int) (pos, users []int32) {
	lo, hi := pj.ItemOffsets[i], pj.ItemOffsets[i+1]
	return pj.ItemIndex[lo:hi:hi], pj.ItemUsers[lo:hi:hi]
}

// openParallelMin is the rating count below which Join runs
// sequentially; goroutine fan-out over a small log costs more than the
// join.
const openParallelMin = 1 << 15

// Join checks every rating of ds with a Joiner and derives the per-item
// index sorted by (Unix, log index), each indexed rating's reviewer
// position, and the rating time range. It reads ds.Ratings and never
// copies or writes it. The checks are sharded over contiguous rating
// ranges across GOMAXPROCS goroutines, each counting its ratings per
// item; the index is then built in one sequential pass over the log in
// (Unix, index) order (timeOrder), placing each index and its reviewer
// position at its item's next free slot. The result is identical at
// every GOMAXPROCS, and the error, if any, names the lowest failing
// rating. maprat.Open and the snapshot writer both call Join, so a
// store opened from a snapshot holds exactly the index a text open
// derives, and no invalid rating reaches either.
func Join(ds *model.Dataset) (Prejoined, error) {
	j := NewJoiner(ds)
	n := len(ds.Ratings)
	userPos := make([]int32, n) // catalog position of each rating's user
	itemPos := make([]int32, n) // and of its item

	workers := runtime.GOMAXPROCS(0)
	if n < openParallelMin {
		workers = 1
	}
	type shard struct {
		counts           []int32 // ratings per item position
		minUnix, maxUnix int64
		err              error
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(sh *shard, lo, hi int) { //maprat:allow(ctxflow) startup join shard: bounded CPU work joined by wg.Wait before Join returns
			defer wg.Done()
			sh.counts = make([]int32, len(ds.Items))
			for i := lo; i < hi; i++ {
				r := ds.Ratings[i]
				u, it, err := j.join(r)
				if err != nil {
					// First error of the shard == lowest rating index,
					// matching the sequential scan's report.
					sh.err = fmt.Errorf("store: rating %d: %w", i, err)
					return
				}
				userPos[i] = u
				itemPos[i] = int32(it)
				sh.counts[it]++
				if i == lo || r.Unix < sh.minUnix {
					sh.minUnix = r.Unix
				}
				if i == lo || r.Unix > sh.maxUnix {
					sh.maxUnix = r.Unix
				}
			}
		}(&shards[w], lo, hi)
	}
	wg.Wait()

	// Merge in shard order, so the first failing shard carries the
	// lowest-index error. Only an empty log has an empty shard, and its
	// time range stays [0, 0].
	pj := Prejoined{Joiner: j, ItemOffsets: make([]int32, len(ds.Items)+1)}
	for w := range shards {
		sh := &shards[w]
		if sh.err != nil {
			return Prejoined{}, sh.err
		}
		if n == 0 {
			break
		}
		if w == 0 || sh.minUnix < pj.MinUnix {
			pj.MinUnix = sh.minUnix
		}
		if w == 0 || sh.maxUnix > pj.MaxUnix {
			pj.MaxUnix = sh.maxUnix
		}
		for it, c := range sh.counts {
			pj.ItemOffsets[it+1] += c
		}
	}
	for it := range ds.Items {
		pj.ItemOffsets[it+1] += pj.ItemOffsets[it]
	}

	// Walking the log in (Unix, index) order and appending each index to
	// its item's run leaves every run in that order.
	next := append([]int32(nil), pj.ItemOffsets[:len(ds.Items)]...)
	pj.ItemIndex = make([]int32, n)
	pj.ItemUsers = make([]int32, n)
	for _, i := range timeOrder(ds.Ratings, pj.MinUnix, pj.MaxUnix) {
		k := next[itemPos[i]]
		pj.ItemIndex[k] = i
		pj.ItemUsers[k] = userPos[i]
		next[itemPos[i]]++
	}
	return pj, nil
}

// radixBits is the digit width of timeOrder's radix sort: a pass's 2^11
// counters stay in L1, and three passes cover a MovieLens log's
// 2^27-second span.
const radixBits = 11

// idxBits is the width of the log index timeOrder packs under each
// remaining key; log indices are int32.
const idxBits = 31

// timeOrder returns the log indices 0..len(ratings)-1 sorted by (Unix,
// index): a stable least-significant-digit radix sort of Unix − minUnix,
// radixBits a pass, as many passes as the span has digits. One
// sequential read of the log counts every pass's digits, and the first
// pass reads it again to scatter each key's remaining digits packed
// above its index into one uint64; the later passes read and write only
// those words. Every Unix must lie in [minUnix, maxUnix] and in the
// years model.MinYear..model.MaxYear, whose span (under 2^39 seconds,
// four passes) leaves at most 28 key bits to pack above the index; a
// MovieLens log takes the same path in three passes.
func timeOrder(ratings []model.Rating, minUnix, maxUnix int64) []int32 {
	const mask = 1<<radixBits - 1
	n := len(ratings)
	width := bits.Len64(uint64(maxUnix - minUnix))
	if width > radixBits+64-idxBits {
		panic(fmt.Sprintf("store: time span [%d, %d] too wide to order", minUnix, maxUnix))
	}
	passes := max(1, (width+radixBits-1)/radixBits)
	count := make([][1 << radixBits]int, passes)
	for i := range ratings {
		k := uint64(ratings[i].Unix - minUnix)
		for p := range count {
			count[p][k>>(p*radixBits)&mask]++
		}
	}
	for p := range count { // counts to each digit's first slot
		sum := 0
		for d, c := range count[p] {
			count[p][d] = sum
			sum += c
		}
	}
	packed := make([]uint64, n)
	next := &count[0]
	for i := range ratings {
		k := uint64(ratings[i].Unix - minUnix)
		d := k & mask
		packed[next[d]] = k>>radixBits<<idxBits | uint64(i)
		next[d]++
	}
	if passes > 1 {
		spare := make([]uint64, n)
		for p := 1; p < passes; p++ {
			next := &count[p]
			shift := uint(idxBits + (p-1)*radixBits)
			for _, v := range packed {
				d := v >> shift & mask
				spare[next[d]] = v
				next[d]++
			}
			packed, spare = spare, packed
		}
	}
	order := make([]int32, n)
	for i, v := range packed {
		order[i] = int32(v & (1<<idxBits - 1))
	}
	return order
}
