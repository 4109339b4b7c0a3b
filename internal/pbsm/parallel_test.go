package pbsm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sweep"
)

func TestParallelMatchesSequential(t *testing.T) {
	R := datagen.LARR(1, 3000).KPEs
	S := datagen.LAST(2, 3000).KPEs
	for _, workers := range []int{2, 4, 8} {
		for _, dup := range []DupMethod{DupRPM, DupSort, DupTLSP} {
			seq, _ := run(t, R, S, Config{Memory: 16 << 10, Dup: dup})
			par, st := run(t, R, S, Config{Memory: 16 << 10, Dup: dup, Parallel: workers})
			sortPairs(seq)
			assertEqualPairs(t, par, seq)
			if st.Tests == 0 {
				t.Fatal("parallel path must accumulate test counts")
			}
		}
	}
}

func TestParallelWithRepartitioning(t *testing.T) {
	// Skewed data forces the sequential repartitioning path inside a
	// parallel run; correctness must survive the mix.
	R := datagen.Uniform(3, 1500, 0.002)
	for i := range R {
		R[i].Rect = geom.NewRect(R[i].Rect.XL*0.01, R[i].Rect.YL*0.01,
			R[i].Rect.XH*0.01, R[i].Rect.YH*0.01) // squeeze into a corner
	}
	seq, seqSt := run(t, R, R, Config{Memory: 8 << 10})
	par, parSt := run(t, R, R, Config{Memory: 8 << 10, Parallel: 4})
	sortPairs(seq)
	assertEqualPairs(t, par, seq)
	if seqSt.Repartitions == 0 || parSt.Repartitions == 0 {
		t.Fatalf("test setup failed to force repartitioning (%d / %d)",
			seqSt.Repartitions, parSt.Repartitions)
	}
}

func TestParallelIOEqualsSequentialIO(t *testing.T) {
	// Parallelism must not change what is charged to the disk.
	R := datagen.LARR(4, 2000).KPEs
	S := datagen.LAST(5, 2000).KPEs
	_, seq := run(t, R, S, Config{Memory: 16 << 10})
	_, par := run(t, R, S, Config{Memory: 16 << 10, Parallel: 4})
	if seq.TotalIO().CostUnits != par.TotalIO().CostUnits {
		t.Fatalf("I/O changed under parallelism: %g vs %g",
			seq.TotalIO().CostUnits, par.TotalIO().CostUnits)
	}
	if seq.RawResults != par.RawResults {
		t.Fatalf("raw results changed: %d vs %d", seq.RawResults, par.RawResults)
	}
}

// adversarialInputs are the P = 1 stress shapes: exact duplicates,
// left-edge ties across both sides, points, boxes spanning the whole unit
// square, and coordinates outside it.
func adversarialInputs() map[string][2][]geom.KPE {
	rng := rand.New(rand.NewSource(41))
	gen := func(n int, mk func(i int) geom.Rect) []geom.KPE {
		ks := make([]geom.KPE, n)
		for i := range ks {
			ks[i] = geom.KPE{ID: uint64(i), Rect: mk(i)}
		}
		return ks
	}
	identical := func(int) geom.Rect { return geom.NewRect(0.3, 0.3, 0.6, 0.6) }
	tiedXL := func(int) geom.Rect {
		x, y := float64(rng.Intn(4))/4, rng.Float64()
		return geom.NewRect(x, y, x+rng.Float64()*0.3, y+rng.Float64()*0.1)
	}
	points := func(int) geom.Rect {
		x, y := float64(rng.Intn(8))/8, float64(rng.Intn(8))/8
		return geom.NewRect(x, y, x, y)
	}
	spanning := func(i int) geom.Rect {
		if i%2 == 0 {
			return geom.NewRect(0, 0, 1, 1)
		}
		return points(i)
	}
	outside := func(int) geom.Rect {
		x, y := rng.Float64()*5-2, rng.Float64()*5-2
		return geom.NewRect(x, y, x+rng.Float64()*0.5, y+rng.Float64()*0.5)
	}
	return map[string][2][]geom.KPE{
		"identical": {gen(120, identical), gen(90, identical)},
		"tied-xl":   {gen(200, tiedXL), gen(220, tiedXL)},
		"points":    {gen(200, points), gen(200, points)},
		"spanning":  {gen(100, spanning), gen(120, spanning)},
		"outside":   {gen(300, outside), gen(300, outside)},
	}
}

// TestSinglePartitionExactAtEveryWorkerCount: with P = 1 the in-memory
// sweep runs as slabs on the scheduler; the emitted sequence (unsorted)
// and the Tests, RawResults and Results counts must be those of
// Parallel 1 at every worker count, for every algorithm and duplicate
// method, on adversarial inputs — and the set must be the oracle's.
func TestSinglePartitionExactAtEveryWorkerCount(t *testing.T) {
	for name, in := range adversarialInputs() {
		R, S := in[0], in[1]
		oracle := naive(R, S)
		for _, alg := range []sweep.Kind{sweep.ListKind, sweep.TrieKind, sweep.NestedLoopsKind} {
			for _, dup := range []DupMethod{DupRPM, DupSort, DupTLSP} {
				t.Run(fmt.Sprintf("%s/%s/%s", name, alg, dup), func(t *testing.T) {
					cfg := Config{Memory: 64 << 20, Algorithm: alg, Dup: dup}
					want, ws := run(t, R, S, cfg)
					if ws.P != 1 {
						t.Fatalf("P = %d, want 1", ws.P)
					}
					assertEqualPairs(t, append([]geom.Pair(nil), want...), oracle)
					for _, workers := range []int{2, 4, 8} {
						cfg.Parallel = workers
						got, st := run(t, R, S, cfg)
						assertSameRun(t, fmt.Sprintf("Parallel %d", workers), got, st, want, ws)
					}
				})
			}
		}
	}
}

// TestPairExecSinglePartitionExact: the shard layer's Parts == 1 path is
// the same in-memory join, so it emits the single-process sequence at
// every worker count.
func TestPairExecSinglePartitionExact(t *testing.T) {
	in := adversarialInputs()["tied-xl"]
	R, S := in[0], in[1]
	for _, dup := range []DupMethod{DupRPM, DupTLSP} {
		want, ws := run(t, R, S, Config{Memory: 64 << 20, Dup: dup})
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := Config{Disk: newDisk(), Memory: 64 << 20, Dup: dup, Parallel: workers}
			gs := PlanGrid(len(R), len(S), cfg)
			if gs.Parts != 1 {
				t.Fatalf("Parts = %d, want 1", gs.Parts)
			}
			ex, err := NewPairExec(cfg, gs)
			if err != nil {
				t.Fatal(err)
			}
			var got []geom.Pair
			if err := ex.RunPair(0, R, S, func(p geom.Pair) { got = append(got, p) }); err != nil {
				t.Fatal(err)
			}
			st := ex.Stats()
			ex.Close()
			assertSameRun(t, fmt.Sprintf("%v PairExec Parallel %d", dup, workers), got, st, want, ws)
		}
	}
}

// assertSameRun compares two runs' emission sequences and counters.
func assertSameRun(t *testing.T, name string, got []geom.Pair, st Stats, want []geom.Pair, ws Stats) {
	t.Helper()
	if st.Tests != ws.Tests || st.RawResults != ws.RawResults || st.Results != ws.Results {
		t.Fatalf("%s: Tests/RawResults/Results = %d/%d/%d, Parallel 1 %d/%d/%d",
			name, st.Tests, st.RawResults, st.Results, ws.Tests, ws.RawResults, ws.Results)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, Parallel 1 %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emission diverges at %d: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// TestSinglePartitionCanceledMidSweep: the P = 1 sweep polls the
// cancellation checkpoint before every slab, so a join canceled while
// its first slab emits stops with KindCanceled before the sweep is
// done, and emits nothing after Join returns.
func TestSinglePartitionCanceledMidSweep(t *testing.T) {
	R := datagen.Uniform(51, 20000, 0.01)
	S := datagen.Uniform(52, 20000, 0.01)
	_, full := run(t, R, S, Config{Memory: 64 << 20, Parallel: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var returned, late atomic.Bool
	st, err := Join(R, S, Config{Disk: newDisk(), Memory: 64 << 20, Parallel: 2, Cancel: govern.NewCheck(ctx)},
		func(geom.Pair) {
			if returned.Load() {
				late.Store(true)
			}
			cancel()
		})
	returned.Store(true)
	if joinerr.KindOf(err) != joinerr.KindCanceled {
		t.Fatalf("Join = %v, want a KindCanceled error", err)
	}
	if st.P != 1 {
		t.Fatalf("P = %d, want 1", st.P)
	}
	if st.Tests >= full.Tests || st.Results >= full.Results {
		t.Fatalf("canceled sweep did all the work: %d tests, %d results (full: %d, %d)",
			st.Tests, st.Results, full.Tests, full.Results)
	}
	if late.Load() {
		t.Fatal("a pair was emitted after Join returned")
	}
}

// TestSlabWorkerPanicIsJoinError: a panic on a slab worker (here, in the
// caller's emit) comes back as a JoinError wrapping the scheduler's
// PanicError, at P = 1 and P > 1 alike.
func TestSlabWorkerPanicIsJoinError(t *testing.T) {
	R := datagen.Uniform(53, 2000, 0.01)
	for _, memory := range []int64{64 << 20, 16 << 10} {
		for _, workers := range []int{1, 2} {
			if memory < 1<<20 && workers == 1 {
				continue // the serial partition-pair loop runs outside the scheduler
			}
			_, err := Join(R, R, Config{Disk: newDisk(), Memory: memory, Parallel: workers}, func(geom.Pair) {
				panic("emit exploded")
			})
			var je *joinerr.JoinError
			var pe *sched.PanicError
			if !errors.As(err, &je) || !errors.As(err, &pe) || pe.Value != "emit exploded" {
				t.Fatalf("memory %d, Parallel %d: Join = %v, want a JoinError wrapping a PanicError", memory, workers, err)
			}
		}
	}
}
