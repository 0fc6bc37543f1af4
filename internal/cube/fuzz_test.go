package cube

import (
	"encoding/binary"
	"testing"
)

// fuzzTupleBytes is the encoded size of one fuzzed tuple: one byte per
// attribute (two for City, whose vocabulary exceeds a byte) plus the score.
const fuzzTupleBytes = NumAttrs + 2

// maxFuzzTuples bounds a fuzzed input so each BuildReference stays cheap.
const maxFuzzTuples = 512

// decodeFuzzBuild turns fuzz bytes into a config and a tuple set. The
// first three bytes are the config: flag bits (1 RequireState, 4
// RequireCity, 8 SkipApex), MinSupport 0–5 and MaxAVPairs 0–5. Every later
// fuzzTupleBytes-sized chunk is one tuple whose attribute values are each
// in range or Wildcard.
func decodeFuzzBuild(data []byte) (Config, []Tuple) {
	var hdr [3]byte
	copy(hdr[:], data)
	cfg := Config{
		RequireState: hdr[0]&1 != 0,
		RequireCity:  hdr[0]&4 != 0,
		SkipApex:     hdr[0]&8 != 0,
		MinSupport:   int(hdr[1] % 6),
		MaxAVPairs:   int(hdr[2] % 6),
	}
	if len(data) < len(hdr) {
		return cfg, nil
	}
	data = data[len(hdr):]
	n := min(len(data)/fuzzTupleBytes, maxFuzzTuples)
	tuples := make([]Tuple, n)
	for i := range tuples {
		rec := data[i*fuzzTupleBytes : (i+1)*fuzzTupleBytes]
		t := &tuples[i]
		for a := 0; a < NumAttrs; a++ {
			raw := int(rec[a])
			if Attr(a) == City {
				raw = int(binary.LittleEndian.Uint16(rec[a:]))
			}
			t.Vals[a] = int16(raw%(Cardinality(Attr(a))+1)) - 1
		}
		t.Score = int8(1 + rec[fuzzTupleBytes-1]%5)
	}
	return cfg, tuples
}

// encodeFuzzBuild is decodeFuzzBuild's inverse, for seed inputs.
func encodeFuzzBuild(hdr [3]byte, tuples []Tuple) []byte {
	out := append([]byte(nil), hdr[:]...)
	for _, t := range tuples {
		var rec [fuzzTupleBytes]byte
		for a := 0; a < NumAttrs; a++ {
			if Attr(a) == City {
				binary.LittleEndian.PutUint16(rec[a:], uint16(t.Vals[a]+1))
			} else {
				rec[a] = byte(t.Vals[a] + 1)
			}
		}
		rec[fuzzTupleBytes-1] = byte(t.Score - 1)
		out = append(out, rec[:]...)
	}
	return out
}

// FuzzBuildMatchesReference requires Build to equal BuildReference group
// for group on arbitrary tuple sets and configs.
func FuzzBuildMatchesReference(f *testing.F) {
	encode := encodeFuzzBuild
	f.Add(encode([3]byte{1 | 8, 12, 3}, randomTuples(64, 1)))
	f.Add(encode([3]byte{0, 1, 0}, wildcardedTuples(64, 2)))
	f.Add(encode([3]byte{4 | 8, 2, 3}, trafficTuples(128, 3)))
	f.Add(encode([3]byte{1 | 4 | 8, 2, 4}, trafficTuples(128, 4)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, tuples := decodeFuzzBuild(data)
		requireSameCube(t, cfg, Build(tuples, cfg), BuildReference(tuples, cfg))
	})
}
