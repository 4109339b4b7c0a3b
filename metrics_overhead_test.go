// The disabled-metrics overhead budget: with Config.Metrics == nil every
// instrumentation site is either a nil-handle method call (one pointer
// test) or, on the disk hot path, one atomic pointer load. As with the
// nil-recorder and cancellation budgets, a direct wall-clock A/B on a
// shared machine is hopeless, so the test bounds the cost from above:
// microbenchmark the disabled-mode primitives, over-count the sites a
// real metrics-free join passes through from its own Result accounting,
// and assert sites × per-site-cost ≤ 1% of the measured join time.
package spatialjoin_test

import (
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/metrics"
)

func TestMetricsDisabledOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("microbenchmark-based budget check")
	}

	// The three disabled-mode primitives. Nil-handle calls cover every
	// site that resolved its handle from a nil registry (counters,
	// gauges, progress); the atomic pointer load covers the disk's
	// per-request gate (diskio swaps its handle block atomically so
	// SetMetrics can detach mid-flight without a lock).
	var nilCounter *metrics.Counter
	perCounter := time.Duration(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nilCounter.Inc()
		}
	}).NsPerOp())
	var nilProg *metrics.Progress
	perProg := time.Duration(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nilProg.Add(1)
		}
	}).NsPerOp())
	var gate atomic.Pointer[int]
	perLoad := time.Duration(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if gate.Load() != nil {
				b.Fatal("gate must stay nil")
			}
		}
	}).NsPerOp())
	perOp := perCounter
	if perProg > perOp {
		perOp = perProg
	}
	if perLoad > perOp {
		perOp = perLoad
	}
	if perOp <= 0 {
		perOp = time.Nanosecond
	}

	// A representative metrics-free join; its Result bounds the site
	// count.
	R := datagen.Uniform(31, 4000, 0.004)
	S := datagen.Uniform(32, 4000, 0.004)
	start := time.Now()
	_, res, err := core.Collect(R, S, core.Config{
		Method: core.PBSM, Memory: 64 << 10, PBSMParallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if res.IO.ReadRequests <= 0 || res.IO.WriteRequests <= 0 || res.PBSMStats.P <= 0 {
		t.Fatalf("implausible join accounting (%+v); budget assertion vacuous", res.IO)
	}

	// Site bound: each disk request passes one gate load (2× for slack),
	// each retry one more, each top-level partition pair a handful of
	// nil-handle calls (pairDone, progress, scheduler bookkeeping; 8 is
	// generous), each raw join-phase result at most one live dup
	// counter call (pbsm.rpm.tests or pbsm.tlsp.pairs.skipped are added
	// from the join loop in batches of up to 1024 results plus one
	// call per join call, so counting one per result, 2× for slack, is
	// a wide over-count), plus a constant for the per-join sites (join
	// counters, progress init, publishMetrics, governor/shard probes).
	sites := 2*(res.IO.ReadRequests+res.IO.WriteRequests) +
		res.IO.Retries +
		8*int64(res.PBSMStats.P) +
		2*res.PBSMStats.RawResults +
		64
	cost := perOp * time.Duration(sites)
	budget := elapsed * 1 / 100
	t.Logf("sites≤%d per-op=%v (counter=%v progress=%v load=%v) projected-cost=%v join=%v budget(1%%)=%v",
		sites, perOp, perCounter, perProg, perLoad, cost, elapsed, budget)
	if cost > budget {
		t.Fatalf("projected disabled-metrics cost %v exceeds 1%% budget %v (join %v)", cost, budget, elapsed)
	}
}
