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
	// activeR and activeS keep the active lists' storage across JoinSlab
	// calls; an instance serves one goroutine at a time.
	activeR, activeS []listEntry
}

// listEntry is one active-list record: the three coordinates the probe
// loop reads and the index of the rectangle's KPE in its sorted input,
// 32 bytes where a KPE copy is 48.
type listEntry struct {
	xh, yl, yh float64
	at         int
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
	activeR, activeS := a.activeR[:0], a.activeS[:0]
	carryIn(rs[:sl.RLo], x0, func(i int) { activeR = append(activeR, newListEntry(rs, i)) })
	carryIn(ss[:sl.SLo], x0, func(i int) { activeS = append(activeS, newListEntry(ss, i)) })
	i, j := sl.RLo, sl.SLo
	for i < sl.RHi || j < sl.SHi {
		fromR := j >= sl.SHi || (i < sl.RHi && rs[i].Rect.XL <= ss[j].Rect.XL)
		if fromR {
			activeS = a.expireAndProbe(activeS, &rs[i], ss, emit, false)
			activeR = append(activeR, newListEntry(rs, i))
			i++
		} else {
			activeR = a.expireAndProbe(activeR, &ss[j], rs, emit, true)
			activeS = append(activeS, newListEntry(ss, j))
			j++
		}
	}
	a.activeR, a.activeS = activeR[:0], activeS[:0]
}

func newListEntry(ks []geom.KPE, at int) listEntry {
	r := &ks[at].Rect
	return listEntry{xh: r.XH, yl: r.YL, yh: r.YH, at: at}
}

// expireAndProbe removes from active every rectangle whose right edge
// lies strictly left of the probe's left edge (it can no longer
// intersect anything arriving later), tests the survivors against the
// probe for y-overlap, and returns the compacted list. active indexes
// into others; probeIsS tells which side the probe belongs to so the
// emit arguments keep (R, S) order.
func (a *ListSweep) expireAndProbe(active []listEntry, probe *geom.KPE, others []geom.KPE, emit Emit, probeIsS bool) []listEntry {
	x, yl, yh := probe.Rect.XL, probe.Rect.YL, probe.Rect.YH
	w := 0
	for _, e := range active {
		if e.xh < x {
			continue // expired: drop by not copying forward
		}
		active[w] = e
		w++
		if overlapsY(e.yl, e.yh, yl, yh) {
			if probeIsS {
				emit(others[e.at], *probe)
			} else {
				emit(*probe, others[e.at])
			}
		}
	}
	a.touches += int64(len(active))
	a.tests += int64(w)
	return active[:w]
}

// overlapsY reports whether the y-ranges [al, ah] and [bl, bh] overlap:
// geom.Rect.IntersectsY without its short-circuit, whose first
// comparison is a coin flip the branch predictor loses on about every
// other entry. The compiler lowers max and min to branch-free MINSD
// sequences, so the only branch left in a status loop is the rarely
// taken hit. For non-inverted ranges the two tests agree on every
// input, NaN and signed zeros included.
func overlapsY(al, ah, bl, bh float64) bool {
	return max(al, bl) <= min(ah, bh)
}
