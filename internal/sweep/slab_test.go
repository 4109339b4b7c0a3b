package sweep

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
)

// emitted is one emit call, kept in call order: slab joins must
// reproduce the serial sequence, not just the set.
type emitted struct{ r, s geom.KPE }

// serial runs a fresh algorithm's Join on copies of the inputs and
// returns its emission sequence and test count.
func serial(kind Kind, rs, ss []geom.KPE) ([]emitted, int64) {
	a := New(kind)
	var out []emitted
	a.Join(append([]geom.KPE(nil), rs...), append([]geom.KPE(nil), ss...), func(r, s geom.KPE) {
		out = append(out, emitted{r, s})
	})
	return out, a.Tests()
}

// slabbed sorts copies of the inputs, cuts them into k slabs and joins
// each slab with its own fresh algorithm, concatenating the emissions in
// slab order and summing the test counts.
func slabbed(kind Kind, rs, ss []geom.KPE, k int) ([]emitted, int64, int) {
	rc := append([]geom.KPE(nil), rs...)
	sc := append([]geom.KPE(nil), ss...)
	a := New(kind)
	a.Sort(rc)
	a.Sort(sc)
	var out []emitted
	var tests int64
	slabs := a.Cut(rc, sc, k)
	for _, sl := range slabs {
		b := New(kind)
		b.JoinSlab(rc, sc, sl, func(r, s geom.KPE) { out = append(out, emitted{r, s}) })
		tests += b.Tests()
	}
	return out, tests, len(slabs)
}

// tiedXL returns n rectangles that all share one left edge.
func tiedXL(rng *rand.Rand, n int, id0 uint64) []geom.KPE {
	ks := make([]geom.KPE, n)
	for i := range ks {
		y := rng.Float64()
		ks[i] = geom.KPE{ID: id0 + uint64(i), Rect: geom.NewRect(0.5, y, 0.5+rng.Float64()*0.2, y+0.1)}
	}
	return ks
}

func TestJoinSlabMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := []struct {
		name   string
		rs, ss []geom.KPE
	}{
		{"random", randomKPEs(rng, 300), randomKPEs(rng, 250)},
		{"clustered", datagen.LARR(3, 400).KPEs, datagen.LAST(4, 400).KPEs},
		{"tied-xl", tiedXL(rng, 60, 0), tiedXL(rng, 70, 1000)},
		{"empty-r", nil, randomKPEs(rng, 40)},
		{"empty-s", randomKPEs(rng, 40), nil},
		{"tiny", randomKPEs(rng, 3), randomKPEs(rng, 2)},
	}
	for _, in := range inputs {
		for _, kind := range []Kind{NestedLoopsKind, ListKind, TrieKind} {
			want, wantTests := serial(kind, in.rs, in.ss)
			n := len(in.rs) + len(in.ss)
			for _, k := range []int{1, 2, 3, 8, 50, n + 5} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", in.name, kind, k), func(t *testing.T) {
					got, tests, _ := slabbed(kind, in.rs, in.ss, k)
					if tests != wantTests {
						t.Fatalf("Tests = %d, serial %d", tests, wantTests)
					}
					if len(got) != len(want) {
						t.Fatalf("%d pairs, serial %d", len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("pair %d = (%d,%d), serial (%d,%d)",
								i, got[i].r.ID, got[i].s.ID, want[i].r.ID, want[i].s.ID)
						}
					}
				})
			}
		}
	}
}

// TestCutMatchesMergeWalk checks every cut against a literal walk of the
// sweep loop's merge, on inputs dense with equal left edges.
func TestCutMatchesMergeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		mk := func(n int) []geom.KPE {
			ks := make([]geom.KPE, n)
			for i := range ks {
				x := float64(rng.Intn(6)) / 5
				ks[i] = geom.KPE{ID: uint64(i), Rect: geom.NewRect(x, 0, x, 0)}
			}
			sortByXL(ks)
			return ks
		}
		rs, ss := mk(rng.Intn(30)), mk(rng.Intn(30))
		n := len(rs) + len(ss)
		// rAt[m] is how many R events the merge has taken after m steps.
		rAt := make([]int, 0, n+1)
		i, j := 0, 0
		rAt = append(rAt, 0)
		for i < len(rs) || j < len(ss) {
			if j >= len(ss) || (i < len(rs) && rs[i].Rect.XL <= ss[j].Rect.XL) {
				i++
			} else {
				j++
			}
			rAt = append(rAt, i)
		}
		k := 1 + rng.Intn(n+3)
		slabs := Cut(rs, ss, k)
		if want := max(1, min(k, n)); len(slabs) != want {
			t.Fatalf("Cut(%d, %d, %d) gave %d slabs, want %d", len(rs), len(ss), k, len(slabs), want)
		}
		m := 0
		for si, sl := range slabs {
			if sl.RLo != rAt[m] || sl.SLo != m-rAt[m] {
				t.Fatalf("slab %d starts at (%d,%d), merge is at (%d,%d)", si, sl.RLo, sl.SLo, rAt[m], m-rAt[m])
			}
			m += sl.RHi - sl.RLo + sl.SHi - sl.SLo
			if sl.RHi != rAt[m] || sl.SHi != m-rAt[m] {
				t.Fatalf("slab %d ends at (%d,%d), merge is at (%d,%d)", si, sl.RHi, sl.SHi, rAt[m], m-rAt[m])
			}
		}
		if m != n {
			t.Fatalf("slabs cover %d of %d events", m, n)
		}
	}
}

// BenchmarkSlabJoin sweeps a J1-sized pair (LA_RR × LA_ST cardinalities)
// whole and in 6 slabs run one after another, so the difference is the
// carry-in cost of cutting.
func BenchmarkSlabJoin(b *testing.B) {
	R := datagen.LARR(1, datagen.LARRCount).KPEs
	S := datagen.LAST(2, datagen.LASTCount).KPEs
	rs := make([]geom.KPE, len(R))
	ss := make([]geom.KPE, len(S))
	for _, kind := range []Kind{ListKind, TrieKind} {
		for _, k := range []int{1, 6} {
			b.Run(fmt.Sprintf("%s/slabs=%d", kind, k), func(b *testing.B) {
				b.ReportAllocs()
				a := New(kind)
				for i := 0; i < b.N; i++ {
					copy(rs, R)
					copy(ss, S)
					a.Sort(rs)
					a.Sort(ss)
					for _, sl := range a.Cut(rs, ss, k) {
						a.JoinSlab(rs, ss, sl, func(geom.KPE, geom.KPE) {})
					}
				}
				b.ReportMetric(float64(a.Tests())/float64(b.N), "tests/op")
			})
		}
	}
}
