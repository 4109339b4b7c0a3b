package sweep

import "spatialjoin/internal/geom"

// Status is a sweep-line status structure usable in streaming sweeps
// (package sssj): rectangles enter in ascending order of their left
// edges, and each probe lazily expires the rectangles the sweep line has
// passed. The in-memory algorithms of this package are built from the
// same structures.
type Status interface {
	// Insert adds a rectangle to the status.
	Insert(k geom.KPE)
	// Probe expires every stored rectangle whose right edge lies strictly
	// left of probe's left edge, then reports each remaining rectangle
	// whose y-range overlaps probe's.
	Probe(probe geom.KPE, report func(geom.KPE))
	// Len returns the number of resident rectangles (expired entries not
	// yet removed by a probe still count — they still occupy memory).
	Len() int
}

// NewStatus creates a sweep status of the given kind. ymin/ymax bound the
// y-keys for the trie variant (pass 0 and 1 for the unit data space);
// tests receives one increment per candidate test and touches one
// increment per status node touched (see Algorithm.Touches). The
// nested-loops kind has no status structure and maps to the list.
func NewStatus(kind Kind, ymin, ymax float64, tests, touches *int64) Status {
	if kind == TrieKind {
		if ymax <= ymin {
			// Degenerate y-extent: every key would scale to 0 (see
			// newTrieStatus), collapsing the whole trie onto the root
			// spine — an O(n) scan per probe with trie-node overhead on
			// top, strictly worse than the plain list. Fall back to the
			// list status, which handles identical keys at the same
			// asymptotic cost without the indirection.
			return &listStatus{tests: tests, touches: touches}
		}
		return newTrieStatus(ymin, ymax, 0, tests, touches)
	}
	return &listStatus{tests: tests, touches: touches}
}

// listStatus keeps the resident rectangles in a plain slice, the
// organization of the Plane Sweep Intersection-Test [BKS 93].
type listStatus struct {
	items   []geom.KPE
	tests   *int64
	touches *int64
}

// Insert implements Status.
func (l *listStatus) Insert(k geom.KPE) { l.items = append(l.items, k) }

// Len implements Status.
func (l *listStatus) Len() int { return len(l.items) }

// Probe implements Status.
func (l *listStatus) Probe(probe geom.KPE, report func(geom.KPE)) {
	x, yl, yh := probe.Rect.XL, probe.Rect.YL, probe.Rect.YH
	items := l.items
	w := 0
	for i := range items {
		r := &items[i].Rect
		if r.XH < x {
			continue // expired
		}
		items[w] = items[i]
		w++
		if overlapsY(r.YL, r.YH, yl, yh) {
			report(items[w-1])
		}
	}
	*l.touches += int64(len(items))
	*l.tests += int64(w)
	l.items = items[:w]
}

// trieStatus adapts intervalTrie to the Status interface.
type trieStatus struct {
	trie  *intervalTrie
	count int
}

// newTrieStatus builds a trie status over y-extent [ymin, ymax]; depth 0
// selects DefaultTrieDepth.
//
// The trie's performance depends on the scale function spreading y-keys
// over the [0, 2^depth) key space. When ymax <= ymin the inverse scale
// stays 0 and EVERY key maps to bucket 0: all intervals land on the
// root spine, probes degenerate to a linear scan of all residents, and
// the sweep as a whole degrades to O(n²) with a higher constant than
// the list status. Callers must guard the extent (NewStatus falls back
// to listStatus); this constructor keeps the degenerate arithmetic
// well-defined (scale clamps to 0) rather than dividing by zero.
func newTrieStatus(ymin, ymax float64, depth int, tests, touches *int64) *trieStatus {
	if depth <= 0 {
		depth = DefaultTrieDepth
	}
	inv := 0.0
	if ymax > ymin {
		inv = float64(uint32(1)<<uint(depth)-1) / (ymax - ymin)
	}
	limit := float64(uint32(1)<<uint(depth) - 1)
	scale := func(y float64) uint32 {
		v := (y - ymin) * inv
		if v <= 0 {
			return 0
		}
		if v >= limit {
			return uint32(limit)
		}
		return uint32(v)
	}
	return &trieStatus{trie: &intervalTrie{bits: depth, scale: scale, tests: tests, touches: touches}}
}

// Insert implements Status.
func (t *trieStatus) Insert(k geom.KPE) {
	t.trie.insert(k)
	t.count++
}

// Len implements Status.
func (t *trieStatus) Len() int { return t.count }

// Probe implements Status.
func (t *trieStatus) Probe(probe geom.KPE, report func(geom.KPE)) {
	t.count -= t.trie.probe(probe, report)
}
