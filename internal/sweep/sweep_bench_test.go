package sweep

import (
	"fmt"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
)

// Benchmarks of the internal join algorithms at partition-like sizes:
// small partitions are PBSM's normal diet at small memory, large ones
// appear when memory grows — the regime where the paper's trie sweep
// overtakes the classic list (§3.2.2, Figures 4 and 5).

// benchJoin reports, besides time and allocations per join, the
// candidate tests per join and the join's time per test — the cost of
// one status-entry comparison, sort and copy included.
func benchJoin(b *testing.B, alg Algorithm, rs, ss []geom.KPE) {
	rc := make([]geom.KPE, len(rs))
	sc := make([]geom.KPE, len(ss))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rc, rs)
		copy(sc, ss)
		alg.Join(rc, sc, func(geom.KPE, geom.KPE) {})
	}
	tests := float64(alg.Tests())
	b.ReportMetric(tests/float64(b.N), "tests/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tests, "ns/test")
}

func BenchmarkAlgorithms(b *testing.B) {
	type input struct {
		name   string
		rs, ss []geom.KPE
	}
	var inputs []input
	for _, n := range []int{100, 1000, 10000} {
		inputs = append(inputs, input{fmt.Sprintf("n=%d", n), datagen.Uniform(1, n, 0.01), datagen.Uniform(2, n, 0.01)})
	}
	// Clustered: one dense blob, the skew that keeps PBSM partitions
	// large and lists long.
	inputs = append(inputs, input{"gauss/n=10000", datagen.Gaussian(1, 10000, 0.005), datagen.Gaussian(2, 10000, 0.005)})
	for _, in := range inputs {
		for _, kind := range []Kind{NestedLoopsKind, ListKind, TrieKind} {
			if kind == NestedLoopsKind && len(in.rs) > 1000 {
				continue // quadratic; no insight past this size
			}
			b.Run(fmt.Sprintf("%s/%s", kind, in.name), func(b *testing.B) {
				benchJoin(b, New(kind), in.rs, in.ss)
			})
		}
	}
}

func BenchmarkTrieStatusInsertProbe(b *testing.B) {
	ks := datagen.Uniform(3, 4096, 0.01)
	var tests, touches int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := newTrieStatus(0, 1, 0, &tests, &touches)
		for _, k := range ks {
			st.Probe(k, func(geom.KPE) {})
			st.Insert(k)
		}
	}
}

func BenchmarkListStatusInsertProbe(b *testing.B) {
	ks := datagen.Uniform(3, 4096, 0.01)
	var tests, touches int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &listStatus{tests: &tests, touches: &touches}
		for _, k := range ks {
			st.Probe(k, func(geom.KPE) {})
			st.Insert(k)
		}
	}
}
