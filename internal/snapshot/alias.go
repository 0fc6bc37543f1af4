package snapshot

import "unsafe"

// arenaLayoutCompatible reports whether the item-index arena's on-disk
// entries — little-endian 4-byte integers — read as this build's int32
// in place. On a big-endian host aliasInt32 declines, and Open decodes
// the arena instead of serving garbage.
var arenaLayoutCompatible = unsafe.Sizeof(int32(0)) == 4 && hostLittleEndian()

func hostLittleEndian() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}

// aliasInt32 reinterprets raw bytes as a []int32 without copying. It
// declines (ok=false) unless the layout is compatible and the base
// pointer is 4-byte aligned.
func aliasInt32(b []byte) ([]int32, bool) {
	if !arenaLayoutCompatible || len(b) == 0 || len(b)%4 != 0 {
		return nil, false
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%unsafe.Alignof(int32(0)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*int32)(p), len(b)/4), true
}
