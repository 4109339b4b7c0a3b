package pbsm

import (
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/recfile"
)

// Metric names owned by package pbsm: the paper's redundancy /
// duplicate accounting as live process-lifetime counters (the same
// quantities the trace records per join), plus partition-pair progress.
const (
	// metPairsDone counts top-level partition pairs completed.
	metPairsDone = "pbsm.pairs.done"
	// metDupSuppressed counts join-phase results suppressed by the
	// duplicate-elimination strategy.
	metDupSuppressed = "pbsm.dup.suppressed"
	// metRPMTests counts reference-point tests (one per raw result
	// under DupRPM), bumped live from the join loop in batches.
	metRPMTests = "pbsm.rpm.tests"
	// metTLSPSkipped counts candidates rejected by the TLSP class test
	// alone (no reference point computed), bumped live from the join
	// loop in batches.
	metTLSPSkipped = "pbsm.tlsp.pairs.skipped"
	// metReplicationCopies counts KPE copies written by partitioning.
	metReplicationCopies = "pbsm.replication.copies"
	// metHealed counts partition pairs re-derived after checksum
	// failures.
	metHealed = "pbsm.healed"
	// metRepartitions counts repartitioning splits.
	metRepartitions = "pbsm.repartitions"
)

// resolveCounters resolves the joiner's live counter handles once up
// front (nil without a registry; the handles are nil-safe, so the join
// loop increments them unconditionally). pbsm.rpm.tests and
// pbsm.tlsp.pairs.skipped are per-result counters published from the
// join loop itself, so a mid-flight /metrics scrape sees them advance
// with the join instead of reading 0 until the end. Each join call
// counts them locally and adds them in batches of at most liveBatch
// (and once more when the call ends), so parallel workers do not
// contend on the counter per result.
func (j *joiner) resolveCounters() {
	j.pairsDone = j.cfg.Metrics.Counter(metPairsDone)
	j.rpmTests = j.cfg.Metrics.Counter(metRPMTests)
	j.tlspSkipped = j.cfg.Metrics.Counter(metTLSPSkipped)
}

// publishMetrics adds this join's remaining redundancy/duplicate totals
// to the process-lifetime counters; a no-op without a registry. The
// per-result counters (RPM tests, TLSP skips) are NOT published here —
// they were already added in batches from the join loop.
func (j *joiner) publishMetrics() {
	m := j.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter(metDupSuppressed).Add(j.stats.RawResults - j.stats.Results)
	m.Counter(metReplicationCopies).Add(j.stats.CopiesR + j.stats.CopiesS)
	m.Counter(metHealed).Add(int64(j.stats.Healed))
	m.Counter(metRepartitions).Add(int64(j.stats.Repartitions))
}

// initProgress prices every top-level partition pair with the same
// iocost.PairCost model the shard coordinator assigns by, and declares
// the sum as the join's planned cost. NumKPEs is length-derived, so
// pricing here is free of I/O charge. No-op without a Progress.
func (j *joiner) initProgress(filesR, filesS []*diskio.File, p int) {
	if j.cfg.Progress == nil {
		return
	}
	dev := iocost.Device{PageSize: j.cfg.Disk.PageSize(), PT: j.cfg.Disk.PT(), BufPages: j.cfg.bufPages()}
	j.pairCost = make([]float64, p)
	total := 0.0
	for i := 0; i < p; i++ {
		c := iocost.PairCost(recfile.NumKPEs(filesR[i]), recfile.NumKPEs(filesS[i]), j.cfg.Memory, dev)
		if c <= 0 {
			c = 1 // empty pairs still count one unit so done can reach total
		}
		j.pairCost[i] = c
		total += c
	}
	j.cfg.Progress.SetTotal(total)
}

// pairDone reports top pair i complete: one unit on the pairs counter
// and the pair's planned cost on the progress estimator. Safe from
// concurrent scheduler units (slice is read-only, updates atomic).
func (j *joiner) pairDone(i int) {
	j.pairsDone.Inc()
	if j.pairCost != nil {
		j.cfg.Progress.Add(j.pairCost[i])
	}
}
