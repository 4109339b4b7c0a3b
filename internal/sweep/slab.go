package sweep

import (
	"sort"

	"spatialjoin/internal/geom"
)

// A plane sweep is one pass over the merge of its two XL-sorted inputs,
// R first on equal XL. Cutting that merge sequence at any position
// splits the sweep into independent pieces: the status a piece starts
// with is fully determined by the rectangles before the cut, because a
// rectangle is tested by a later one exactly when its right edge has not
// fallen behind the later one's left edge. So a slab pre-seeded with the
// earlier rectangles that still reach its first left edge (its
// carry-ins, in sweep order) tests the same candidates, in the same
// order, as the serial sweep does at the same events. Running the slabs
// of a cut in order, in one goroutine or many, emits exactly the serial
// sequence and performs exactly the serial number of tests. Only Touches
// may differ: a slab never sees the entries the serial sweep still
// carries after they expired, because it has not yet probed them away.

// Slab is one contiguous piece of a join: the events rs[RLo:RHi] and
// ss[SLo:SHi] of the inputs as the algorithm orders them. For the plane
// sweeps these are consecutive events of the serial merge; for nested
// loops, a range of R against all of S.
type Slab struct {
	RLo, RHi, SLo, SHi int
}

// Whole is the slab covering both inputs entirely: JoinSlab over it is
// Join without the sort.
func Whole(rs, ss []geom.KPE) Slab {
	return Slab{RHi: len(rs), SHi: len(ss)}
}

// Cut splits the XL-sorted inputs into at most k slabs of near-equal
// event counts at quantiles of the serial merge order (R first on equal
// XL, the sweep loop's tie-break). It returns max(1, min(k, len(rs)+len(ss)))
// slabs, in merge order, that together cover both inputs.
func Cut(rs, ss []geom.KPE, k int) []Slab {
	n := len(rs) + len(ss)
	k = max(1, min(k, n))
	slabs := make([]Slab, k)
	ri, si := 0, 0
	for t := range slabs {
		m := (t + 1) * n / k
		i := mergeSplit(rs, ss, m)
		slabs[t] = Slab{RLo: ri, RHi: i, SLo: si, SHi: m - i}
		ri, si = i, m-i
	}
	return slabs
}

// mergeSplit returns how many elements of rs are among the first m
// events of the merge of rs and ss. The merge is a total order — by XL,
// then R before S, then index — so the split is unique: the smallest i
// for which no unchosen rs[i] precedes a chosen ss[m-i-1].
func mergeSplit(rs, ss []geom.KPE, m int) int {
	lo, hi := max(0, m-len(ss)), min(m, len(rs))
	// Every probed i is below hi, so m-i ≥ 1 and ss[m-i-1] exists.
	return lo + sort.Search(hi-lo, func(d int) bool {
		i := lo + d
		return ss[m-i-1].Rect.XL < rs[i].Rect.XL
	})
}

// firstXL returns the left edge of the slab's first event in merge
// order; ok is false for an empty slab.
func (sl Slab) firstXL(rs, ss []geom.KPE) (x float64, ok bool) {
	switch {
	case sl.RLo < sl.RHi && (sl.SLo >= sl.SHi || rs[sl.RLo].Rect.XL <= ss[sl.SLo].Rect.XL):
		return rs[sl.RLo].Rect.XL, true
	case sl.SLo < sl.SHi:
		return ss[sl.SLo].Rect.XL, true
	}
	return 0, false
}

// carryIn calls add, in sweep order, for every rectangle of before whose
// right edge reaches x: the entries of the serial status that are still
// live when the sweep arrives at a slab whose first left edge is x.
func carryIn(before []geom.KPE, x float64, add func(geom.KPE)) {
	for i := range before {
		if before[i].Rect.XH >= x {
			add(before[i])
		}
	}
}

// xlOrder supplies Sort and Cut to the plane sweeps, whose slabs are
// pieces of the XL merge.
type xlOrder struct{}

// Sort implements Algorithm: XL order.
func (xlOrder) Sort(ks []geom.KPE) { sortByXL(ks) }

// Cut implements Algorithm with the merge-order Cut.
func (xlOrder) Cut(rs, ss []geom.KPE, k int) []Slab { return Cut(rs, ss, k) }
