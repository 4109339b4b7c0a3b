package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/trace"
)

// TestRunSerialInline: fewer than two workers runs every unit inline, in
// index order, on the calling goroutine (slot 0).
func TestRunSerialInline(t *testing.T) {
	for _, workers := range []int{0, 1} {
		var order []int
		err := Run(5, Options{Workers: workers}, func(w, i int) error {
			if w != 0 {
				t.Fatalf("serial path used slot %d", w)
			}
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: unit order %v, want ascending", workers, order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("ran %d units, want 5", len(order))
		}
	}
}

// TestRunParallelCoversAllUnits: every unit runs exactly once, worker
// slots stay within bounds, and concurrency never exceeds Workers.
func TestRunParallelCoversAllUnits(t *testing.T) {
	const n, workers = 64, 4
	var ran [n]atomic.Int32
	var cur, peak atomic.Int32
	err := Run(n, Options{Workers: workers}, func(w, i int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("slot %d out of range", w)
		}
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		ran[i].Add(1)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("unit %d ran %d times", i, got)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent units, cap %d", p, workers)
	}
}

// TestRunFirstErrorWins: the first failing unit's error is returned and
// later units are skipped (no unit starts after the error is set).
func TestRunFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int32
	err := Run(100, Options{Workers: 4}, func(w, i int) error {
		if i == 3 {
			return boom
		}
		if i > 50 {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if after.Load() > 4 {
		t.Fatalf("%d late units ran after the error; pool did not drain", after.Load())
	}
}

// TestRunHonorsCancellation: a canceled context surfaces through the
// per-unit checkpoint on both the serial and the parallel path.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	chk := govern.NewCheck(ctx)
	for _, workers := range []int{1, 4} {
		ran := 0
		err := Run(8, Options{Workers: workers, Cancel: chk}, func(w, i int) error {
			ran++
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran != 0 {
			t.Fatalf("workers=%d: %d units ran under a canceled context", workers, ran)
		}
	}
}

// TestRunGovernorCapsWorkers: with a governor that can only fund one
// extra slot, at most two workers run; declined slots surface in the
// governor stats and all memory is returned after the run.
func TestRunGovernorCapsWorkers(t *testing.T) {
	g := govern.NewGovernor(0, 100)
	release, err := g.Acquire(context.Background(), 50) // the join's own claim
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	var cur, peak atomic.Int32
	var mu sync.Mutex
	slots := map[int]bool{}
	err = Run(32, Options{Workers: 4, Gov: g, UnitMem: 50}, func(w, i int) error {
		mu.Lock()
		slots[w] = true
		mu.Unlock()
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("governor funded %d concurrent workers, budget allows 2", p)
	}
	st := g.Stats()
	if st.WorkerGrants != 1 {
		t.Fatalf("WorkerGrants = %d, want 1", st.WorkerGrants)
	}
	if st.WorkerDeclined == 0 {
		t.Fatal("no slot was declined; cap assertion vacuous")
	}
	if st.ActiveMemory != 50 {
		t.Fatalf("ActiveMemory = %d after run, want 50 (worker grants not released)", st.ActiveMemory)
	}
}

// TestRunWorkerSpans: parallel workers open one span each under the
// given parent; the serial path opens none.
func TestRunWorkerSpans(t *testing.T) {
	rec := trace.New()
	root := rec.Begin("root")
	if err := Run(8, Options{Workers: 3, Span: root, Name: "unit-pool"}, func(w, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := Run(8, Options{Workers: 1, Span: root, Name: "unit-pool"}, func(w, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	root.End()
	n := 0
	for _, sd := range rec.Spans() {
		if sd.Name == "unit-pool" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("%d worker spans, want 3 (parallel run only)", n)
	}
}

// TestCollectorSerialOrder: regardless of completion order, the
// delivered sequence equals the serial unit order.
func TestCollectorSerialOrder(t *testing.T) {
	var got []geom.Pair
	c := NewCollector(4, func(p geom.Pair) { got = append(got, p) })
	// Units finish out of order: 2, 0, 3, 1.
	c.Emit(2, geom.Pair{R: 2, S: 0})
	c.Done(2)
	c.Emit(0, geom.Pair{R: 0, S: 0})
	c.Emit(0, geom.Pair{R: 0, S: 1})
	c.Done(0)
	c.Emit(3, geom.Pair{R: 3, S: 0})
	c.Done(3)
	c.Emit(1, geom.Pair{R: 1, S: 0})
	c.Done(1)
	want := []geom.Pair{{R: 0, S: 0}, {R: 0, S: 1}, {R: 1, S: 0}, {R: 2, S: 0}, {R: 3, S: 0}}
	if len(got) != len(want) {
		t.Fatalf("delivered %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %+v, want %+v (sequence %+v)", i, got[i], want[i], got)
		}
	}
}

// TestCollectorStreamsHead: pairs of the emission head unit reach the
// sink immediately, preserving pipelining for in-order completions.
func TestCollectorStreamsHead(t *testing.T) {
	var got []geom.Pair
	c := NewCollector(2, func(p geom.Pair) { got = append(got, p) })
	c.Emit(0, geom.Pair{R: 7, S: 7})
	if len(got) != 1 {
		t.Fatal("head unit's pair was buffered instead of streamed")
	}
	c.Done(0)
	c.Emit(1, geom.Pair{R: 8, S: 8})
	if len(got) != 2 {
		t.Fatal("new head unit's pair was buffered after handoff")
	}
	c.Done(1)
}

// TestCollectorConcurrent exercises the collector under the race
// detector with concurrent emitters: many small units on 8 workers, and
// units of up to two chunks' worth of pairs on 4 workers, so buffers
// cross chunk boundaries and recycle chunks while others emit.
func TestCollectorConcurrent(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
		per        func(i int) int
	}{
		{16, 8, func(int) int { return 50 }},
		{64, 4, func(i int) int { return (i * 977) % (2*chunkPairs + 5) }},
	} {
		var got []geom.Pair
		c := NewCollector(tc.n, func(p geom.Pair) { got = append(got, p) })
		err := Run(tc.n, Options{Workers: tc.workers}, func(w, i int) error {
			for k := 0; k < tc.per(i); k++ {
				c.Emit(i, geom.Pair{R: uint64(i), S: uint64(k)})
			}
			c.Done(i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for i := 0; i < tc.n; i++ {
			for s := 0; s < tc.per(i); s++ {
				if want := (geom.Pair{R: uint64(i), S: uint64(s)}); k >= len(got) || got[k] != want {
					t.Fatalf("workers=%d: pair %d is not %+v (%d delivered)", tc.workers, k, want, len(got))
				}
				k++
			}
		}
		if k != len(got) {
			t.Fatalf("workers=%d: delivered %d pairs, want %d", tc.workers, len(got), k)
		}
	}
}

// TestRunRecoversPanics: a panicking unit fails the run with a
// PanicError naming the pool and unit, on the serial and the pooled
// path alike, and no worker goroutine outlives Run.
func TestRunRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			var ran atomic.Int32
			err := Run(16, Options{Workers: workers, Name: "boom-pool"}, func(w, i int) error {
				ran.Add(1)
				if i == 5 {
					panic(fmt.Sprintf("unit %d exploded", i))
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("Run = %v, want a *PanicError", err)
			}
			if pe.Pool != "boom-pool" || pe.Unit != 5 || pe.Value != "unit 5 exploded" {
				t.Fatalf("PanicError = {%q, %d, %v}, want {boom-pool, 5, unit 5 exploded}", pe.Pool, pe.Unit, pe.Value)
			}
			if msg := err.Error(); !strings.Contains(msg, "boom-pool unit 5 panicked") || !strings.Contains(msg, "TestRunRecoversPanics") {
				t.Fatalf("error text lacks pool, unit or stack:\n%s", msg)
			}
			if workers == 1 && ran.Load() != 6 {
				t.Fatalf("serial run went on after the panic: %d units ran", ran.Load())
			}
			// Workers have exited when Run returns; give the runtime a
			// moment to retire their goroutine records.
			for try := 0; runtime.NumGoroutine() > before && try < 100; try++ {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after Run, %d before", n, before)
			}
		})
	}
}

// TestCollectorOrderAcrossChunks: a buffered unit spanning several
// chunks flushes in emission order, and recycled chunks carry no stale
// pairs into the next unit that buffers.
func TestCollectorOrderAcrossChunks(t *testing.T) {
	const n, per = 4, 3*chunkPairs + 17
	var got []geom.Pair
	c := NewCollector(n, func(p geom.Pair) { got = append(got, p) })
	// Unit 0 is the head and streams; units 1..3 buffer. Finishing 1
	// before 0 makes its chunks free for unit 3's later emits.
	for _, i := range []int{1, 2} {
		for k := 0; k < per; k++ {
			c.Emit(i, geom.Pair{R: uint64(i), S: uint64(k)})
		}
	}
	for k := 0; k < per; k++ {
		c.Emit(0, geom.Pair{R: 0, S: uint64(k)})
	}
	c.Done(1)
	c.Done(0) // flushes 1, lands on 2 and flushes it; 2 now streams
	for k := 0; k < per; k++ {
		c.Emit(3, geom.Pair{R: 3, S: uint64(k)})
	}
	c.Done(2)
	c.Done(3)
	if len(got) != n*per {
		t.Fatalf("delivered %d pairs, want %d", len(got), n*per)
	}
	for i, p := range got {
		if want := (geom.Pair{R: uint64(i / per), S: uint64(i % per)}); p != want {
			t.Fatalf("pair %d = %+v, want %+v", i, p, want)
		}
	}
}

// TestCollectorBufferAllocs: buffering N pairs allocates about one chunk
// per chunkPairs pairs plus a constant, never a re-copy of the buffer.
func TestCollectorBufferAllocs(t *testing.T) {
	const pairs = 64 * chunkPairs
	allocs := testing.AllocsPerRun(5, func() {
		c := NewCollector(2, func(geom.Pair) {})
		for k := 0; k < pairs; k++ {
			c.Emit(1, geom.Pair{R: 1, S: uint64(k)})
		}
		c.Done(0)
		c.Done(1)
	})
	// 64 chunks, ~7 doublings of the chunk list, the collector itself.
	if limit := float64(pairs/chunkPairs + 16); allocs > limit {
		t.Fatalf("%.0f allocations to buffer %d pairs, want ≤ %.0f", allocs, pairs, limit)
	}
}

// BenchmarkCollectorBuffered: units finishing in reverse order, so all
// but the head buffer a chunk's worth of pairs and flush at the end.
func BenchmarkCollectorBuffered(b *testing.B) {
	const units, per = 8, chunkPairs
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		c := NewCollector(units, func(geom.Pair) {})
		for i := units - 1; i >= 0; i-- {
			for k := 0; k < per; k++ {
				c.Emit(i, geom.Pair{R: uint64(i), S: uint64(k)})
			}
			c.Done(i)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*units*per), "ns/pair")
}
