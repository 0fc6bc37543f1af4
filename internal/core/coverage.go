package core

import "repro/internal/cube"

// Coverage engine: every constraint check in SM/DM reduces to "how many
// tuples does this selection of groups jointly cover". The production
// engine works on dense scratch bitsets over R_I, fed by the cube's
// cached per-group bitsets (cube.MemberBits): a selection's coverage is a
// word-wise OR into scratch plus a popcount, and a dense group's marginal
// contribution against a marked base is a single AND-NOT popcount pass.
// Groups sparser than the bitset word count (no cached bitset) evaluate
// through their member lists against the same dense base — per group, the
// engine always takes min(words, support) operations. The original
// epoch-marking engine — re-scanning every selected group's member list
// per evaluation — is kept below as the executable reference;
// differential tests drive both and require identical integers, which
// also keeps every solver's output byte-identical across engines.
//
// The production solver also skips work whose outcome is already
// decided, using three invariants. Each is exact, so every chosen move,
// evaluation count and Solution matches the unpruned reference scans:
//
//   - A group's marginal coverage never exceeds its support. The repair
//     scan in randomFeasibleInit keeps a candidate only on a strictly
//     larger gain, so it stops once suffixMax[i], the largest support
//     among cands[i:], is at most the best gain so far. The suffix
//     maximum holds in any group order, not only cube.Build's
//     support-sorted one.
//   - A neighbourhood trial is chosen only if it is both feasible and
//     improving, so bestSampledMove may test the cheap objective first
//     and compute coverage only for an improving trial. A swap or add
//     whose other groups plus the candidate's whole support fall short
//     of the required count is infeasible without a popcount.
//   - The objective reads per-group n, n·σ and μ precomputed by
//     NewProblem and sums them in the original order, so it yields the
//     same floats as computing them from each group's aggregate.
//   - A swap trial keeps the selection's admissible size and, because
//     sampleCandidates stamps the selection out of the sample, has no
//     duplicate, so bestSampledMove skips both checks for swaps. It
//     scores a swap through the per-position evaluator (swapEval), which
//     replays Objective's left-to-right sums term for term, so its
//     floats equal Objective's bit for bit.

// orGroup ORs group gi's member set into a bitset: word-wise for dense
// groups, by setting each member's bit for sparse ones (their list is
// shorter than the word scan would be).
func (p *Problem) orGroup(dst []uint64, gi int) {
	if b := p.bits[gi]; b != nil {
		cube.OrInto(dst, b)
		return
	}
	for _, ti := range p.Cube.Groups[gi].Members {
		dst[ti>>6] |= 1 << (uint(ti) & 63)
	}
}

// marginal counts group gi's members not covered by base — AND-NOT
// popcount for dense groups, a member-list probe of base for sparse ones.
func (p *Problem) marginal(gi int, base []uint64) int {
	if b := p.bits[gi]; b != nil {
		return cube.AndNotCount(b, base)
	}
	n := 0
	for _, ti := range p.Cube.Groups[gi].Members {
		if base[ti>>6]&(1<<(uint(ti)&63)) == 0 {
			n++
		}
	}
	return n
}

// coveredCount returns the exact union coverage (tuple count) of a
// selection of group indices.
func (p *Problem) coveredCount(sel []int) int {
	if p.refCoverage {
		return p.coveredCountRef(sel)
	}
	clear(p.cover)
	for _, gi := range sel {
		p.orGroup(p.cover, gi)
	}
	return cube.PopCount(p.cover)
}

// markSelection marks the members of every selected group except the one
// at position skip (pass -1 to mark all): it builds the base coverage
// bitset later unmarkedCount calls are measured against.
func (p *Problem) markSelection(sel []int, skip int) {
	if p.refCoverage {
		p.markSelectionRef(sel, skip)
		return
	}
	clear(p.base)
	for i, gi := range sel {
		if i == skip {
			continue
		}
		p.orGroup(p.base, gi)
	}
}

// unmarkedCount counts a group's members not covered by the marked base —
// its marginal coverage against the marked selection.
func (p *Problem) unmarkedCount(gi int) int {
	if p.refCoverage {
		return p.unmarkedCountRef(gi)
	}
	return p.marginal(gi, p.base)
}

// baseCount returns the coverage of the currently marked base selection.
// Only valid on the bitset engine (the reference engine never needs it:
// its callers re-evaluate selections from scratch).
func (p *Problem) baseCount() int { return cube.PopCount(p.base) }

// leastUniqueIndex returns the selection position whose group contributes
// the fewest tuples nobody else covers.
func (p *Problem) leastUniqueIndex(sel []int) int {
	worst, worstUnique := 0, int(^uint(0)>>1)
	for i := range sel {
		p.markSelection(sel, i)
		if u := p.unmarkedCount(sel[i]); u < worstUnique {
			worstUnique, worst = u, i
		}
	}
	return worst
}

// useReferenceCoverage switches this Problem to the epoch-marking
// reference engine, the reference neighbourhood scan and the unpruned
// repair scan. Test-only: the differential suite solves the same instance
// on both engines and demands byte-identical Solutions.
func (p *Problem) useReferenceCoverage() {
	p.refCoverage = true
	p.mark = make([]int32, len(p.Cube.Tuples))
	p.epoch = 0
}

// ---- reference engine (original implementation, kept as the spec) ----

func (p *Problem) coveredCountRef(sel []int) int {
	p.epoch++
	covered := 0
	for _, gi := range sel {
		for _, ti := range p.Cube.Groups[gi].Members {
			if p.mark[ti] != p.epoch {
				p.mark[ti] = p.epoch
				covered++
			}
		}
	}
	return covered
}

func (p *Problem) markSelectionRef(sel []int, skip int) {
	p.epoch++
	for i, gi := range sel {
		if i == skip {
			continue
		}
		for _, ti := range p.Cube.Groups[gi].Members {
			p.mark[ti] = p.epoch
		}
	}
}

func (p *Problem) unmarkedCountRef(gi int) int {
	n := 0
	for _, ti := range p.Cube.Groups[gi].Members {
		if p.mark[ti] != p.epoch {
			n++
		}
	}
	return n
}
