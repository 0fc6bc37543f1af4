package api

import "sort"

type resp struct {
	items   []string
	missing []string
}

// --- order leaks ---------------------------------------------------------

func leakReturnedSlice(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order leaks into "keys"`
		keys = append(keys, k)
	}
	return keys
}

func leakResponseField(m map[string]int) *resp {
	out := &resp{}
	for k := range m { // want `map iteration order leaks into "out\.items"`
		out.items = append(out.items, k)
	}
	return out
}

func leakThroughParam(m map[string]int, out *resp) {
	for k := range m { // want `map iteration order leaks into "out\.items"`
		out.items = append(out.items, k)
	}
}

func leakStringConcat(m map[string]int) string {
	s := ""
	for k := range m { // want `string concatenation of "s" inside a map range is order-dependent`
		s += k
	}
	return s
}

func leakFloatSum(m map[string]float64) (total float64) {
	for _, v := range m { // want `floating-point accumulation of "total" inside a map range is order-dependent`
		total += v
	}
	return total
}

// --- clean patterns ------------------------------------------------------

func sortedAfterLoop(m map[string]int) *resp {
	out := &resp{}
	for k := range m { // ok: sorted before it escapes
		out.missing = append(out.missing, k)
	}
	sort.Strings(out.missing)
	return out
}

func sortedLocal(m map[string]int) []string {
	var keys []string
	for k := range m { // ok: sorted before return
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func localOnly(m map[string]int) int {
	var keys []string
	for k := range m { // ok: never escapes
		keys = append(keys, k)
	}
	return len(keys)
}

func intSum(m map[string]int) int {
	total := 0
	for _, v := range m { // ok: integer addition commutes
		total += v
	}
	return total
}

func rangeSlice(xs []string) []string {
	var out []string
	for _, x := range xs { // ok: slice iteration is ordered
		out = append(out, x)
	}
	return out
}
