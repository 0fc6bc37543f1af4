package snap

import "unsafe"

// layoutOK is this file's layout guard, mirroring the real snapshot
// package's arenaLayoutCompatible check.
var layoutOK = unsafe.Sizeof(int32(0)) == 4

func aliasGuarded(b []byte) []int32 {
	if !layoutOK || len(b) < 4 {
		return nil
	}
	p := unsafe.Pointer(&b[0])
	return unsafe.Slice((*int32)(p), len(b)/4) // ok: file carries a layout guard
}

func writeThrough(b []byte) {
	s := aliasGuarded(b)
	if len(s) > 0 {
		s[0] = 1 // want `write through aliased slice`
	}
}

func copyInto(b []byte, src []int32) {
	s := aliasGuarded(b)
	copy(s, src) // want `copy into aliased slice`
}

func readOnly(b []byte) int32 {
	s := aliasGuarded(b)
	if len(s) == 0 {
		return 0
	}
	return s[0] // ok: reads through the alias are fine
}

func decodeFallback(b []byte) []int32 {
	s := aliasGuarded(b)
	if s == nil {
		s = make([]int32, len(b)/4)
		for i := range s {
			s[i] = int32(i) // ok: reassignment from make laundered the alias
		}
	}
	return s
}

func annotatedScratch(b []byte) {
	s := aliasGuarded(b)
	if len(s) > 0 {
		s[0] = 2 //maprat:allow(aliasguard) fixture: scratch region owned by this writer
	}
}
