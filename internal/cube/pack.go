package cube

// Packed cell codes: a Key is a vector of small known-cardinality digits
// (gender×age×occupation×state×city, each possibly Wildcard), so the whole
// descriptor fits one mixed-radix integer. The cube builder keys its flat
// cell table by this code instead of hashing a 10-byte Key per insert, and
// the code doubles as a sort key: attribute 0 is the most significant
// digit and Wildcard packs below every real value, so ascending code order
// is exactly lessKey order.

// packRadix[a] is the digit base of attribute a: its vocabulary size plus
// one slot for Wildcard (digit 0).
var packRadix = func() [NumAttrs]uint64 {
	var r [NumAttrs]uint64
	for a := 0; a < NumAttrs; a++ {
		r[a] = uint64(Cardinality(Attr(a)) + 1)
	}
	return r
}()

// packWeight[a] is the positional weight of attribute a's digit: the
// product of the radices of all less-significant (higher-index) attributes.
// The full code space is Π packRadix ≈ 3.6M. The cube build packs a code
// into 32 bits (packTable slots, Build's sort key), which leaves the
// vocabularies about a thousandfold headroom.
var packWeight = func() [NumAttrs]uint64 {
	var w [NumAttrs]uint64
	acc := uint64(1)
	for a := NumAttrs - 1; a >= 0; a-- {
		w[a] = acc
		acc *= packRadix[a]
	}
	return w
}()

// PackKey encodes a descriptor into its mixed-radix cell code. Every
// attribute value must be Wildcard or a valid index for its vocabulary.
func PackKey(k Key) uint64 {
	var code uint64
	for a := 0; a < NumAttrs; a++ {
		code += uint64(k[a]+1) * packWeight[a]
	}
	return code
}

// UnpackKey decodes a cell code back into the descriptor it encodes.
// UnpackKey(PackKey(k)) == k for every valid Key.
func UnpackKey(code uint64) Key {
	var k Key
	for a := 0; a < NumAttrs; a++ {
		k[a] = int16(code/packWeight[a]%packRadix[a]) - 1
	}
	return k
}

// packTable is an open-addressed hash table from cell code to a dense
// cell id, numbering cells in first-touch order; the cells' codes and
// aggregates live in dense arrays indexed by id, so ids stay valid when
// the table grows. A slot packs code+1 above the id, so one load compares
// and resolves a probe, and the zero value marks an empty slot (code 0 is
// the valid apex cell, and every code fits 32 bits). Linear probing keeps
// collision chains in cache; the table grows at ~70% load.
type packTable struct {
	slots []uint64 // (code+1)<<32 | id; 0 = empty
	codes []uint64 // cell id → code
	aggs  []Agg    // cell id → aggregate
	mask  uint64
	lim   int // grow threshold
}

func newPackTable(hint int) *packTable {
	size := 64
	for size*7 < hint*10 {
		size <<= 1
	}
	t := &packTable{codes: make([]uint64, 0, hint), aggs: make([]Agg, 0, hint)}
	t.init(size)
	return t
}

func (t *packTable) init(size int) {
	t.slots = make([]uint64, size)
	t.mask = uint64(size - 1)
	t.lim = size * 7 / 10
}

// probe returns the slot holding key k (= code+1) or the empty slot where
// it belongs.
func (t *packTable) probe(k uint64) uint64 {
	h := k * 0x9E3779B97F4A7C15 // Fibonacci scramble of the dense code space
	i := (h ^ h>>29) & t.mask
	for t.slots[i] != 0 && t.slots[i]>>32 != k {
		i = (i + 1) & t.mask
	}
	return i
}

// id returns the cell id of code, inserting an empty cell on first touch.
func (t *packTable) id(code uint64) int32 {
	i := t.probe(code + 1)
	if t.slots[i] == 0 {
		if len(t.codes) >= t.lim {
			t.grow()
			i = t.probe(code + 1)
		}
		t.slots[i] = (code+1)<<32 | uint64(len(t.codes))
		t.codes = append(t.codes, code)
		t.aggs = append(t.aggs, Agg{})
	}
	return int32(uint32(t.slots[i]))
}

func (t *packTable) grow() {
	old := t.slots
	t.init(len(old) * 2)
	for _, s := range old {
		if s != 0 {
			t.slots[t.probe(s>>32)] = s
		}
	}
}

// packMask is one admissible free-attribute subset: the cells a tuple
// contributes to are base constraints plus any mask from this list.
type packMask struct {
	bits uint32  // bit bi set = free attr i constrained
	idx  []uint8 // positions of the set bits, for the code sum
}

// packLayout is the per-Config precomputation of the packed build: which
// attributes every cell fixes (the mandatory state/city conditions), which
// vary, and which subsets of the varying ones survive the apex /
// label-length pruning no matter the tuple. Tuple-dependent pruning
// (missing attribute values) stays in the build via the missing-bit mask.
type packLayout struct {
	required []Attr
	free     []Attr
	masks    []packMask
}

func newPackLayout(cfg Config) *packLayout {
	l := &packLayout{free: freeAttrs(cfg)}
	if cfg.RequireState {
		l.required = append(l.required, State)
	}
	if cfg.RequireCity {
		l.required = append(l.required, City)
	}
	for bits := 0; bits < 1<<len(l.free); bits++ {
		n := len(l.required) + popcount32(uint32(bits))
		if cfg.SkipApex && n == 0 {
			continue
		}
		if cfg.MaxAVPairs > 0 && n > cfg.MaxAVPairs {
			continue
		}
		m := packMask{bits: uint32(bits)}
		for bi := 0; bi < len(l.free); bi++ {
			if bits&(1<<bi) != 0 {
				m.idx = append(m.idx, uint8(bi))
			}
		}
		l.masks = append(l.masks, m)
	}
	return l
}

// baseCode returns the code of tp's base cell: the mandatory and free
// attributes at the tuple's own values, a free attribute the tuple lacks
// packing as Wildcard (digit 0). Every cell the tuple contributes to is
// an ancestor of its base cell. ok is false when the tuple lacks a
// mandatory value and so contributes to no cell.
func (l *packLayout) baseCode(tp *Tuple) (code uint64, ok bool) {
	for _, a := range l.required {
		if tp.Vals[a] == Wildcard {
			return 0, false
		}
		code += uint64(tp.Vals[a]+1) * packWeight[a]
	}
	for _, a := range l.free {
		code += uint64(tp.Vals[a]+1) * packWeight[a]
	}
	return code, true
}

// split decomposes a base cell's code into its mandatory part, the code
// addend of each free attribute's digit, and the mask of free attributes
// the cell leaves Wildcard. An ancestor's code is req plus the addends of
// its mask's attributes.
func (l *packLayout) split(code uint64, add *[NumAttrs]uint64) (req uint64, missing uint32) {
	req = code
	for bi, a := range l.free {
		add[bi] = code / packWeight[a] % packRadix[a] * packWeight[a]
		req -= add[bi]
		if add[bi] == 0 {
			missing |= 1 << uint(bi)
		}
	}
	return req, missing
}

func popcount32(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
