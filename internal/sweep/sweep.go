// Package sweep implements the internal (main-memory) spatial join
// algorithms of the paper: simple nested loops, the list-based Plane
// Sweep Intersection-Test of Brinkhoff, Kriegel & Seeger [BKS 93] used by
// the original PBSM, and the trie-based plane sweep of §3.2.2 whose
// sweep-line status is an interval trie.
//
// All algorithms compute the set of intersecting pairs (r, s), r ∈ R,
// s ∈ S, and report each pair exactly once through the emit callback.
// They are the pluggable building block of both PBSM's join phase and
// S³J's partition joins, and the direct subject of the paper's Figure 4,
// Figure 5 and Figure 12 experiments.
package sweep

import (
	"sort"

	"spatialjoin/internal/geom"
)

// Emit receives one intersecting result pair.
type Emit func(r, s geom.KPE)

// Algorithm is an in-memory spatial intersection join. Join may reorder
// the input slices (the plane sweeps sort by the rectangles' left edges)
// but never adds or removes elements.
//
// A join can also run in slabs (slab.go): Sort both inputs, Cut them,
// and JoinSlab every slab. Run in slab order, the slabs emit exactly
// Join's pair sequence and perform exactly Join's Tests, so independent
// slabs may run on different goroutines with one Algorithm each.
type Algorithm interface {
	Name() string
	// Join reports every intersecting pair between rs and ss: Sort on
	// both inputs, then JoinSlab over their Whole slab.
	Join(rs, ss []geom.KPE, emit Emit)
	// Sort puts one input into the order Cut and JoinSlab expect: XL
	// order for the plane sweeps, unchanged for nested loops. It keeps
	// no state and is safe for concurrent use.
	Sort(ks []geom.KPE)
	// Cut splits sorted inputs into at most k slabs, in emission order.
	Cut(rs, ss []geom.KPE, k int) []Slab
	// JoinSlab reports the pairs the serial join emits at the events of
	// sl, a slab of this algorithm's Cut (or Whole) over the same sorted
	// rs and ss, which it reads but does not reorder.
	JoinSlab(rs, ss []geom.KPE, sl Slab, emit Emit)
	// Tests returns the cumulative number of candidate tests performed
	// across all Join calls, a machine-independent CPU proxy.
	Tests() int64
	// Touches returns the cumulative number of status-structure node
	// touches across all Join calls: list entries scanned for the list
	// sweep, trie nodes visited for the trie sweep. Where Tests counts
	// only y-overlap comparisons, Touches exposes the traversal work the
	// status organization itself causes — the quantity behind the
	// trie-vs-list crossover of §3.2.2.
	Touches() int64
	// ResetTests zeroes the test and touch counters.
	ResetTests()
}

// Kind names an internal algorithm for configuration surfaces.
type Kind string

const (
	// NestedLoopsKind selects the quadratic nested-loops join.
	NestedLoopsKind Kind = "nested"
	// ListKind selects the list-based Plane Sweep Intersection-Test.
	ListKind Kind = "list"
	// TrieKind selects the interval-trie plane sweep.
	TrieKind Kind = "trie"
)

// New returns a fresh Algorithm of the given kind. Unknown kinds yield
// the list sweep, the original PBSM default.
func New(k Kind) Algorithm {
	switch k {
	case NestedLoopsKind:
		return &NestedLoops{}
	case TrieKind:
		return &TrieSweep{}
	default:
		return &ListSweep{}
	}
}

// NestedLoops tests every pair. It is only competitive for the very small
// partitions produced by S³J (§4.4.1, Figure 12).
type NestedLoops struct {
	tests int64
}

// Name implements Algorithm.
func (a *NestedLoops) Name() string { return string(NestedLoopsKind) }

// Tests implements Algorithm.
func (a *NestedLoops) Tests() int64 { return a.tests }

// Touches implements Algorithm. Nested loops has no status structure;
// every candidate test is exactly one touch.
func (a *NestedLoops) Touches() int64 { return a.tests }

// ResetTests implements Algorithm.
func (a *NestedLoops) ResetTests() { a.tests = 0 }

// Join implements Algorithm.
func (a *NestedLoops) Join(rs, ss []geom.KPE, emit Emit) {
	a.join(rs, ss, emit)
}

// Sort implements Algorithm: nested loops needs no order.
func (a *NestedLoops) Sort([]geom.KPE) {}

// Cut implements Algorithm: nested loops emits R-major, so a slab is a
// range of R against all of S.
func (a *NestedLoops) Cut(rs, ss []geom.KPE, k int) []Slab {
	k = max(1, min(k, len(rs)))
	slabs := make([]Slab, k)
	for t := range slabs {
		slabs[t] = Slab{RLo: t * len(rs) / k, RHi: (t + 1) * len(rs) / k, SHi: len(ss)}
	}
	return slabs
}

// JoinSlab implements Algorithm.
func (a *NestedLoops) JoinSlab(rs, ss []geom.KPE, sl Slab, emit Emit) {
	a.join(rs[sl.RLo:sl.RHi], ss[sl.SLo:sl.SHi], emit)
}

// join tests every pair of rs × ss, R-major. S³J calls Join once per
// cell pair, so Join calls it directly rather than through a Slab.
func (a *NestedLoops) join(rs, ss []geom.KPE, emit Emit) {
	for i := range rs {
		r := rs[i].Rect
		for j := range ss {
			a.tests++
			if r.Intersects(ss[j].Rect) {
				emit(rs[i], ss[j])
			}
		}
	}
}

// sortByXL orders a slice of KPEs by the left edge of their rectangles,
// the sweep order of both plane-sweep algorithms.
func sortByXL(ks []geom.KPE) {
	sort.Slice(ks, func(i, j int) bool { return ks[i].Rect.XL < ks[j].Rect.XL })
}
