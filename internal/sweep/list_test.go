package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
)

// refListSweep is the list sweep's probe loop in its textbook form: KPE
// copies in the active lists, the short-circuit IntersectsY test and
// per-entry counting. ListSweep's compact kernel must reproduce its
// emitted sequence, Tests and Touches exactly.
type refListSweep struct{ tests, touches int64 }

func (a *refListSweep) joinSlab(rs, ss []geom.KPE, sl Slab, emit Emit) {
	x0, ok := sl.firstXL(rs, ss)
	if !ok {
		return
	}
	var activeR, activeS []geom.KPE
	carryIn(rs[:sl.RLo], x0, func(i int) { activeR = append(activeR, rs[i]) })
	carryIn(ss[:sl.SLo], x0, func(i int) { activeS = append(activeS, ss[i]) })
	i, j := sl.RLo, sl.SLo
	for i < sl.RHi || j < sl.SHi {
		if j >= sl.SHi || (i < sl.RHi && rs[i].Rect.XL <= ss[j].Rect.XL) {
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

func (a *refListSweep) expireAndProbe(active []geom.KPE, probe geom.KPE, emit Emit, probeIsS bool) []geom.KPE {
	a.touches += int64(len(active))
	w := 0
	for i := range active {
		if active[i].Rect.XH < probe.Rect.XL {
			continue
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

// adversarialInputs are the inputs on which a reformulated y-test or a
// reordered status could diverge from the reference: exact ties in
// every coordinate, zero-width and zero-height rectangles, signed zeros,
// and extents far outside the unit square.
func adversarialInputs(rng *rand.Rand) []struct {
	name   string
	rs, ss []geom.KPE
} {
	negZero := math.Copysign(0, -1)
	ids := uint64(0)
	mk := func(n int, f func(i int) geom.Rect) []geom.KPE {
		ks := make([]geom.KPE, n)
		for i := range ks {
			ks[i] = geom.KPE{ID: ids, Rect: f(i)}
			ids++
		}
		return ks
	}
	grid := func(steps int) float64 { return float64(rng.Intn(steps+1)) / float64(steps) }
	touching := func(int) geom.Rect {
		// Grid-snapped rectangles: neighbors share edges and corners.
		x, y := grid(8), grid(8)
		return geom.Rect{XL: x, YL: y, XH: x + 0.125*float64(rng.Intn(3)), YH: y + 0.125*float64(rng.Intn(3))}
	}
	pointOrSegment := func(int) geom.Rect {
		x, y := grid(10), grid(10)
		switch rng.Intn(3) {
		case 0:
			return geom.Rect{XL: x, YL: y, XH: x, YH: y}
		case 1:
			return geom.Rect{XL: x, YL: y, XH: x + rng.Float64()*0.3, YH: y}
		}
		return geom.Rect{XL: x, YL: y, XH: x, YH: y + rng.Float64()*0.3}
	}
	signedZero := func(int) geom.Rect {
		c := []float64{negZero, 0, -0.25, -1, 0.25}
		a, b := c[rng.Intn(len(c))], c[rng.Intn(len(c))]
		d, e := c[rng.Intn(len(c))], c[rng.Intn(len(c))]
		return geom.Rect{XL: min(a, b), XH: max(a, b), YL: min(d, e), YH: max(d, e)}
	}
	outside := func(int) geom.Rect {
		x, y := rng.Float64()*40-20, rng.Float64()*40-20
		return geom.Rect{XL: x, YL: y, XH: x + rng.Float64()*5, YH: y + rng.Float64()*5}
	}
	spanningOrPoint := func(i int) geom.Rect {
		if i%2 == 0 {
			return geom.UnitRect
		}
		x, y := rng.Float64(), rng.Float64()
		return geom.Rect{XL: x, YL: y, XH: x, YH: y}
	}
	identical := func(int) geom.Rect { return geom.Rect{XL: 0.3, YL: 0.3, XH: 0.6, YH: 0.6} }
	return []struct {
		name   string
		rs, ss []geom.KPE
	}{
		{"identical", mk(40, identical), mk(35, identical)},
		{"tied-xl", tiedXL(rng, 60, 10_000), tiedXL(rng, 70, 20_000)},
		{"touching", mk(200, touching), mk(180, touching)},
		{"points-segments", mk(200, pointOrSegment), mk(220, pointOrSegment)},
		{"signed-zero", mk(120, signedZero), mk(130, signedZero)},
		{"outside-unit", mk(150, outside), mk(160, outside)},
		{"spanning", mk(60, spanningOrPoint), mk(70, spanningOrPoint)},
		{"random", randomKPEs(rng, 300), randomKPEs(rng, 280)},
		{"empty-s", mk(10, identical), nil},
	}
}

func TestListKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, in := range adversarialInputs(rng) {
		rs := append([]geom.KPE(nil), in.rs...)
		ss := append([]geom.KPE(nil), in.ss...)
		sortByXL(rs)
		sortByXL(ss)
		for k := 0; k <= 8; k++ {
			slabs := []Slab{Whole(rs, ss)}
			if k > 0 {
				slabs = Cut(rs, ss, k)
			}
			t.Run(fmt.Sprintf("%s/k=%d", in.name, k), func(t *testing.T) {
				var want, got []emitted
				ref := &refListSweep{}
				// One ListSweep across all slabs: its reused list storage
				// must not leak entries from one slab into the next.
				kern := &ListSweep{}
				for _, sl := range slabs {
					ref.joinSlab(rs, ss, sl, func(r, s geom.KPE) { want = append(want, emitted{r, s}) })
					kern.JoinSlab(rs, ss, sl, func(r, s geom.KPE) { got = append(got, emitted{r, s}) })
				}
				if kern.Tests() != ref.tests || kern.Touches() != ref.touches {
					t.Fatalf("Tests/Touches = %d/%d, reference %d/%d", kern.Tests(), kern.Touches(), ref.tests, ref.touches)
				}
				if len(got) != len(want) {
					t.Fatalf("%d pairs, reference %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] || got[i].r.ID != want[i].r.ID || got[i].s.ID != want[i].s.ID {
						t.Fatalf("pair %d = (%d,%d), reference (%d,%d)", i, got[i].r.ID, got[i].s.ID, want[i].r.ID, want[i].s.ID)
					}
				}
			})
		}
	}
}

// TestOverlapsYMatchesIntersectsY checks the branch-free y-test against
// the short-circuit one on every combination of special values, for
// ranges that are not inverted.
func TestOverlapsYMatchesIntersectsY(t *testing.T) {
	vals := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1), math.NaN()}
	for _, al := range vals {
		for _, ah := range vals {
			for _, bl := range vals {
				for _, bh := range vals {
					if al > ah || bl > bh {
						continue
					}
					want := geom.Rect{YL: al, YH: ah}.IntersectsY(geom.Rect{YL: bl, YH: bh})
					if got := overlapsY(al, ah, bl, bh); got != want {
						t.Fatalf("overlapsY(%v, %v, %v, %v) = %v, IntersectsY %v", al, ah, bl, bh, got, want)
					}
				}
			}
		}
	}
}

func TestListJoinSlabReusesStorage(t *testing.T) {
	rs := datagen.Uniform(1, 2000, 0.02)
	ss := datagen.Uniform(2, 2000, 0.02)
	a := &ListSweep{}
	a.Sort(rs)
	a.Sort(ss)
	noop := func(geom.KPE, geom.KPE) {}
	for _, sl := range []Slab{Whole(rs, ss), Cut(rs, ss, 3)[1]} {
		a.JoinSlab(rs, ss, sl, noop)
		if n := testing.AllocsPerRun(3, func() { a.JoinSlab(rs, ss, sl, noop) }); n != 0 {
			t.Fatalf("JoinSlab(%+v) after a warm-up allocates %v times per call, want 0", sl, n)
		}
	}
}
