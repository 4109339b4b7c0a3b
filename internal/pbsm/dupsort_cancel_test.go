package pbsm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sweep"
)

// TestDupSortSpoolFailureIsSticky: the DupSort result spool is shared by
// every partition pair. After one pair's spool write failed, the next
// pair used to write into the failed writer's full frame and panic the
// process; it must get the spool's error instead.
func TestDupSortSpoolFailureIsSticky(t *testing.T) {
	d := newDisk()
	j := &joiner{cfg: Config{Disk: d, Memory: 1 << 20, Dup: DupSort}, alg: sweep.New(""), reg: d.NewRegistry()}
	defer j.reg.Sweep()
	j.dupWriter = recfile.NewPairWriter(j.reg.Create(), 1)
	ks := make([]geom.KPE, 40)
	for i := range ks {
		ks[i] = geom.KPE{ID: uint64(i), Rect: geom.NewRect(0, 0, 1, 1)}
	}
	d.SetCancel(func() error { return context.Canceled })
	for pair := 0; pair < 3; pair++ {
		if err := j.joinLoaded(j.alg, nil, ks, ks, wholeSpace{}, wholeSpace{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("pair %d: joinLoaded = %v, want the spool's cancellation error", pair, err)
		}
	}
}

// TestDupSortCanceledMidJoinFailsCleanly: a DupSort join whose disk
// starts refusing requests part-way through ends in a clean cancellation
// error and leaves no file behind, wherever the first refusal lands. The
// input is skewed so that the spool is written from inside repartition
// recursion, which the package-level cancellation sweeps do not force.
func TestDupSortCanceledMidJoinFailsCleanly(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mk := func(n int) []geom.KPE {
		ks := make([]geom.KPE, n)
		for i := range ks {
			cx, cy := rng.Float64()*0.02, rng.Float64()*0.02
			ks[i] = geom.KPE{ID: uint64(i), Rect: geom.NewRect(cx, cy, cx+0.003, cy+0.003)}
		}
		return ks
	}
	R, S := mk(400), mk(400)
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			var calls, failAt atomic.Int64
			d := newDisk()
			d.SetCancel(func() error {
				if n := calls.Add(1); failAt.Load() > 0 && n >= failAt.Load() {
					return context.Canceled
				}
				return nil
			})
			cfg := Config{Disk: d, Memory: 16 << 10, Dup: DupSort, Parallel: par}
			st, err := Join(R, S, cfg, func(geom.Pair) {})
			if err != nil {
				t.Fatalf("uncanceled join: %v", err)
			}
			if st.Repartitions == 0 {
				t.Fatal("input does not force repartitioning")
			}
			total := calls.Load()
			inJoin := 0
			for k := int64(1); k <= 9; k++ {
				calls.Store(0)
				failAt.Store(total * k / 10)
				_, err := Join(R, S, cfg, func(geom.Pair) {})
				if joinerr.KindOf(err) != joinerr.KindCanceled {
					t.Fatalf("cancel at request %d/%d: got %v, want a canceled join error", failAt.Load(), total, err)
				}
				var je *joinerr.JoinError
				if errors.As(err, &je) && je.Phase == PhaseJoin.String() {
					inJoin++
				}
				if n := d.NumFiles(); n != 0 {
					t.Fatalf("cancel at request %d/%d left %d files", failAt.Load(), total, n)
				}
			}
			if inJoin == 0 {
				t.Fatal("no cancellation point landed in the join phase, where the result spool is written")
			}
		})
	}
}
