package sweep

import "spatialjoin/internal/geom"

// TrieSweep is the plane-sweep join of §3.2.2 whose sweep-line status is
// organized in interval *tries* [Knu 70] instead of a list. Each active
// rectangle is stored, keyed by its y-interval, at the trie node whose
// span is the shortest one covering the interval — the one-dimensional
// analogue of an MX-CIF quadtree. Probing a rectangle visits only the
// nodes whose span overlaps the probe's y-range, so for large partitions
// and selective joins far fewer candidate tests are performed than with a
// list. Compared to the dynamic interval trees suggested for SSSJ, the
// trie needs no rebalancing: expired entries are removed lazily while
// node item lists are scanned.
type TrieSweep struct {
	xlOrder
	tests   int64
	touches int64
	// Depth is the maximum trie depth (bits of the normalized y-keys).
	// Zero selects DefaultTrieDepth.
	Depth int
}

// DefaultTrieDepth bounds the interval-trie depth. 16 bits resolve the
// partition's y-extent to 1/65536, below which node spans stop
// discriminating rectangles usefully.
const DefaultTrieDepth = 16

// Name implements Algorithm.
func (a *TrieSweep) Name() string { return string(TrieKind) }

// Tests implements Algorithm.
func (a *TrieSweep) Tests() int64 { return a.tests }

// Touches implements Algorithm: trie nodes visited by probe walks. The
// trie touches only nodes whose span overlaps the probe's y-range, so
// this grows far slower than the list's entry scans on large partitions.
func (a *TrieSweep) Touches() int64 { return a.touches }

// ResetTests implements Algorithm.
func (a *TrieSweep) ResetTests() { a.tests, a.touches = 0, 0 }

// Join implements Algorithm.
func (a *TrieSweep) Join(rs, ss []geom.KPE, emit Emit) {
	if len(rs) == 0 || len(ss) == 0 {
		return
	}
	sortByXL(rs)
	sortByXL(ss)
	a.JoinSlab(rs, ss, Whole(rs, ss), emit)
}

// JoinSlab implements Algorithm: the tries start with the slab's
// carry-ins, inserted in the order the serial sweep inserted them and
// keyed by the whole input's y-extent, so every carry-in lands on the
// node — and at the position within it — the serial sweep would hold
// it at.
func (a *TrieSweep) JoinSlab(rs, ss []geom.KPE, sl Slab, emit Emit) {
	if len(rs) == 0 || len(ss) == 0 {
		return
	}
	x0, ok := sl.firstXL(rs, ss)
	if !ok {
		return
	}
	depth := a.Depth
	if depth <= 0 {
		depth = DefaultTrieDepth
	}
	// Normalize y-keys to the joint y-extent of both inputs so the trie
	// discriminates within the partition actually being joined.
	ymin, ymax := rs[0].Rect.YL, rs[0].Rect.YH
	for _, k := range rs {
		ymin = min(ymin, k.Rect.YL)
		ymax = max(ymax, k.Rect.YH)
	}
	for _, k := range ss {
		ymin = min(ymin, k.Rect.YL)
		ymax = max(ymax, k.Rect.YH)
	}

	trieR := newTrieStatus(ymin, ymax, depth, &a.tests, &a.touches)
	trieS := newTrieStatus(ymin, ymax, depth, &a.tests, &a.touches)
	carryIn(rs[:sl.RLo], x0, trieR.Insert)
	carryIn(ss[:sl.SLo], x0, trieS.Insert)
	i, j := sl.RLo, sl.SLo
	for i < sl.RHi || j < sl.SHi {
		if j >= sl.SHi || (i < sl.RHi && rs[i].Rect.XL <= ss[j].Rect.XL) {
			r := rs[i]
			i++
			trieS.Probe(r, func(s geom.KPE) { emit(r, s) })
			trieR.Insert(r)
		} else {
			s := ss[j]
			j++
			trieR.Probe(s, func(r geom.KPE) { emit(r, s) })
			trieS.Insert(s)
		}
	}
}

// intervalTrie is the sweep-line status for one relation: a binary trie
// over normalized y-keys whose nodes carry the rectangles assigned to
// their span.
type intervalTrie struct {
	root    trieNode
	bits    int
	scale   func(float64) uint32
	tests   *int64
	touches *int64
}

type trieNode struct {
	children [2]*trieNode
	items    []geom.KPE
}

// insert stores k at the deepest node whose span covers its y-interval.
func (t *intervalTrie) insert(k geom.KPE) {
	lo := t.scale(k.Rect.YL)
	hi := t.scale(k.Rect.YH)
	n := &t.root
	for d := t.bits - 1; d >= 0; d-- {
		bl := (lo >> uint(d)) & 1
		bh := (hi >> uint(d)) & 1
		if bl != bh {
			break // interval crosses this node's midpoint: store here
		}
		c := n.children[bl]
		if c == nil {
			c = &trieNode{}
			n.children[bl] = c
		}
		n = c
	}
	n.items = append(n.items, k)
}

// probe reports every live stored rectangle whose y-range overlaps probe,
// removing entries whose right edge has fallen behind the sweep line. It
// returns the number of entries removed.
func (t *intervalTrie) probe(probe geom.KPE, report func(geom.KPE)) int {
	qlo := t.scale(probe.Rect.YL)
	qhi := t.scale(probe.Rect.YH)
	return t.walk(&t.root, t.bits, 0, qlo, qhi, probe, report)
}

// walk visits node n whose span is [base, base + 2^depthLeft) on the
// normalized key grid, pruning subtrees outside [qlo, qhi]. It returns
// the number of expired entries removed.
func (t *intervalTrie) walk(n *trieNode, depthLeft int, base, qlo, qhi uint32, probe geom.KPE, report func(geom.KPE)) int {
	*t.touches++
	x := probe.Rect.XL
	items := n.items
	w := 0
	for i := range items {
		if items[i].Rect.XH < x {
			continue // expired under the sweep line: lazy removal
		}
		items[w] = items[i]
		w++
		*t.tests++
		if items[i].Rect.IntersectsY(probe.Rect) {
			report(items[i])
		}
	}
	removed := len(items) - w
	n.items = items[:w]

	if depthLeft == 0 {
		return removed
	}
	half := uint32(1) << uint(depthLeft-1)
	if c := n.children[0]; c != nil && qlo < base+half {
		removed += t.walk(c, depthLeft-1, base, qlo, qhi, probe, report)
	}
	if c := n.children[1]; c != nil && qhi >= base+half {
		removed += t.walk(c, depthLeft-1, base+half, qlo, qhi, probe, report)
	}
	return removed
}
