package sweep

import "spatialjoin/internal/geom"

// ListSweep is the Plane Sweep Intersection-Test of [BKS 93]: both inputs
// are sorted by the left edge, a vertical sweep line moves left to right,
// and the status of the sweep line — the rectangles currently stabbed by
// it — is kept in a plain list per relation. When a rectangle enters the
// sweep, expired rectangles (right edge left of the sweep) are dropped
// from the other relation's list and the remaining ones are tested for
// y-overlap.
//
// Its runtime on a partition with n rectangles is O(√n·n) under the
// uniform stabbing assumption of §3.2.2, which is why PBSM benefits from
// many small partitions — and why the algorithm degrades when a larger
// memory budget produces fewer, larger partitions (Figure 5).
type ListSweep struct {
	xlOrder
	tests   int64
	touches int64
}

// Name implements Algorithm.
func (a *ListSweep) Name() string { return string(ListKind) }

// Tests implements Algorithm.
func (a *ListSweep) Tests() int64 { return a.tests }

// Touches implements Algorithm: status entries scanned during probes,
// expired ones included — the list must look at every resident entry on
// every probe, which is exactly its weakness on large partitions.
func (a *ListSweep) Touches() int64 { return a.touches }

// ResetTests implements Algorithm.
func (a *ListSweep) ResetTests() { a.tests, a.touches = 0, 0 }

// Join implements Algorithm.
func (a *ListSweep) Join(rs, ss []geom.KPE, emit Emit) {
	sortByXL(rs)
	sortByXL(ss)
	a.JoinSlab(rs, ss, Whole(rs, ss), emit)
}

// JoinSlab implements Algorithm: the active lists start with the
// slab's carry-ins, in the order the serial sweep inserted them.
func (a *ListSweep) JoinSlab(rs, ss []geom.KPE, sl Slab, emit Emit) {
	x0, ok := sl.firstXL(rs, ss)
	if !ok {
		return
	}
	var activeR, activeS []geom.KPE
	carryIn(rs[:sl.RLo], x0, func(k geom.KPE) { activeR = append(activeR, k) })
	carryIn(ss[:sl.SLo], x0, func(k geom.KPE) { activeS = append(activeS, k) })
	i, j := sl.RLo, sl.SLo
	for i < sl.RHi || j < sl.SHi {
		fromR := j >= sl.SHi || (i < sl.RHi && rs[i].Rect.XL <= ss[j].Rect.XL)
		if fromR {
			r := rs[i]
			i++
			activeS = a.expireAndProbe(activeS, r, emit, false)
			activeR = append(activeR, r)
		} else {
			s := ss[j]
			j++
			activeR = a.expireAndProbe(activeR, s, emit, true)
			activeS = append(activeS, s)
		}
	}
}

// expireAndProbe removes from active every rectangle whose right edge
// lies strictly left of probe's left edge (it can no longer intersect
// anything arriving later), tests the survivors against probe for
// y-overlap, and returns the compacted list. probeIsS tells which side
// probe belongs to so the emit arguments keep (R, S) order.
func (a *ListSweep) expireAndProbe(active []geom.KPE, probe geom.KPE, emit Emit, probeIsS bool) []geom.KPE {
	a.touches += int64(len(active))
	x := probe.Rect.XL
	w := 0
	for i := range active {
		if active[i].Rect.XH < x {
			continue // expired: drop by not copying forward
		}
		active[w] = active[i]
		w++
		a.tests++
		if active[i].Rect.IntersectsY(probe.Rect) {
			if probeIsS {
				emit(active[i], probe)
			} else {
				emit(probe, active[i])
			}
		}
	}
	return active[:w]
}
