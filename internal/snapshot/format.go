// Package snapshot is MapRat's versioned binary on-disk dataset format
// (.msnap): a checksummed, little-endian columnar layout that Write
// produces from a *model.Dataset and Open memory-maps back into a
// dataset plus the per-item index the store gathers through — fixed-size
// binary records instead of text, so a process opens a
// MovieLens-1M-scale dataset in milliseconds instead of re-parsing text,
// and two processes mounting the same file share the index's read-only
// pages.
//
// File layout (all integers little-endian):
//
//	offset 0      magic "MSNP"
//	offset 4      format version (u32)
//	offset 8      section count (u32)
//	offset 12     flags (u32, reserved)
//	offset 16     users, items, ratings (u64 each)
//	offset 40     minUnix, maxUnix (i64 each)
//	offset 56     reserved (16 bytes, zero; version 1 stored two hashes here)
//	offset 72     provenance (u64)   — builder config hash (0 = unknown)
//	offset 80     reserved (16 bytes)
//	offset 96     section table: count × {id u32, crc u32, offset u64, length u64}
//	then          header CRC-32C (u32) over everything above it
//	then          sections, each 64-byte aligned, CRC-32C checksummed
//
// Sections: a string-intern table (every descriptor string stored once),
// columnar users and items, the pre-joined 32-byte tuple-record log, the
// per-item time-sorted tuple index (offsets + one flat arena), and a
// free-form key=value meta block. Each fact is stored once: the rating
// log is the tuple log's (user, item, score, unix) fields, and the
// dataset fingerprint is derived from the data by whoever needs it.
// Version 1 files also carry a rating-column section (ID 4), which Open
// never reads.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a .msnap file.
const Magic = "MSNP"

// Version is the current format version. Open rejects files from the
// future; older versions are readable as long as their layout is.
const Version = 2

// Section IDs. Unknown IDs are ignored by Open so later versions can add
// sections without breaking old readers. ID 4 (version 1's rating
// columns) is retired and never reused.
const (
	secStrings   = 1 // intern table: count, offsets u32[count+1], blob
	secUsers     = 2 // id i32[n] | gender,age,occ u8[n] | zip,state,city u32[n]
	secItems     = 3 // id,year i32[n] | title u32[n] | 3× list columns
	secTuples    = 5 // n × 32-byte tuple records (the rec* offsets)
	secItemIndex = 6 // offsets u32[items+1] | arena i32[ratings]
	secMeta      = 7 // count, then {klen u32, vlen u32, key, value}×count
)

const (
	headerFixedBytes = 96
	sectionEntrySize = 24
	sectionAlign     = 64
	tupleRecordSize  = 32
)

// A tuple record's fields and their byte offsets: Vals (NumAttrs u16) at
// 0, Score (u8) at 10, five zero bytes, then Unix (i64), UserID (i32)
// and ItemID (i32). The layout is the format's own: neither cube.Tuple
// nor model.Rating shares it.
const (
	recScore  = 10
	recUnix   = 16
	recUserID = 24
	recItemID = 28
)

// Sentinel errors Open classifies failures with (wrapped with detail).
var (
	ErrBadMagic  = errors.New("snapshot: bad magic (not a .msnap file)")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrChecksum  = errors.New("snapshot: checksum mismatch")
	ErrTruncated = errors.New("snapshot: file truncated")
)

// castagnoli is the CRC-32C table; Castagnoli is hardware-accelerated on
// both amd64 and arm64, so checksumming tens of MB costs milliseconds.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SectionInfo is one section-table entry, exported for `maprat snap info`.
type SectionInfo struct {
	ID     uint32
	CRC    uint32
	Offset uint64
	Length uint64
}

// Name returns a human label for the section ID.
func (s SectionInfo) Name() string {
	switch s.ID {
	case secStrings:
		return "strings"
	case secUsers:
		return "users"
	case secItems:
		return "items"
	case secTuples:
		return "tuples"
	case secItemIndex:
		return "item-index"
	case secMeta:
		return "meta"
	}
	return fmt.Sprintf("section-%d", s.ID)
}

// Header is the decoded snapshot header.
type Header struct {
	Version          uint32
	Users            uint64
	Items            uint64
	Ratings          uint64
	MinUnix, MaxUnix int64
	// Provenance is the builder's config hash: for generated snapshots a
	// hash of (GenConfig, seed), for packed text dirs a hash of the
	// source files. Zero means unknown.
	Provenance uint64
	Sections   []SectionInfo
}

// headerBytes returns the encoded size of the header + section table,
// excluding the trailing CRC.
func headerBytes(sections int) int {
	return headerFixedBytes + sections*sectionEntrySize
}

func alignUp(n, align int) int {
	return (n + align - 1) / align * align
}

// le is the format's byte order.
var le = binary.LittleEndian

// decodeHeader parses and CRC-verifies the header from the start of b.
func decodeHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < headerFixedBytes+4 {
		return h, fmt.Errorf("%w: %d bytes is smaller than any header", ErrTruncated, len(b))
	}
	if string(b[0:4]) != Magic {
		return h, fmt.Errorf("%w: got %q", ErrBadMagic, string(b[0:4]))
	}
	h.Version = le.Uint32(b[4:])
	if h.Version > Version {
		return h, fmt.Errorf("%w: file is version %d, this build reads <= %d", ErrVersion, h.Version, Version)
	}
	nsec := int(le.Uint32(b[8:]))
	hb := headerBytes(nsec)
	if len(b) < hb+4 {
		return h, fmt.Errorf("%w: header claims %d sections but the file ends inside the table", ErrTruncated, nsec)
	}
	if got, want := crc32.Checksum(b[:hb], castagnoli), le.Uint32(b[hb:]); got != want {
		return h, fmt.Errorf("%w: header crc %08x, want %08x", ErrChecksum, got, want)
	}
	h.Users = le.Uint64(b[16:])
	h.Items = le.Uint64(b[24:])
	h.Ratings = le.Uint64(b[32:])
	h.MinUnix = int64(le.Uint64(b[40:]))
	h.MaxUnix = int64(le.Uint64(b[48:]))
	h.Provenance = le.Uint64(b[72:])
	h.Sections = make([]SectionInfo, nsec)
	for i := 0; i < nsec; i++ {
		e := b[headerFixedBytes+i*sectionEntrySize:]
		h.Sections[i] = SectionInfo{
			ID:     le.Uint32(e[0:]),
			CRC:    le.Uint32(e[4:]),
			Offset: le.Uint64(e[8:]),
			Length: le.Uint64(e[16:]),
		}
	}
	return h, nil
}

// section locates and CRC-verifies one section's bytes inside the file.
// A missing required section is a format error.
func (h *Header) section(b []byte, id uint32) ([]byte, error) {
	for _, s := range h.Sections {
		if s.ID != id {
			continue
		}
		end := s.Offset + s.Length
		if end < s.Offset || end > uint64(len(b)) {
			return nil, fmt.Errorf("%w: section %s [%d,%d) exceeds the %d-byte file",
				ErrTruncated, s.Name(), s.Offset, end, len(b))
		}
		data := b[s.Offset:end]
		if got := crc32.Checksum(data, castagnoli); got != s.CRC {
			return nil, fmt.Errorf("%w: section %s crc %08x, want %08x", ErrChecksum, s.Name(), got, s.CRC)
		}
		return data, nil
	}
	return nil, fmt.Errorf("snapshot: required section %d missing", id)
}
