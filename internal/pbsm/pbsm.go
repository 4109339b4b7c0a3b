// Package pbsm implements the Partition Based Spatial-Merge Join of Patel
// & DeWitt [PD 96] together with the improvements of Dittrich & Seeger
// (ICDE 2000, §3): on-line duplicate elimination with the Reference Point
// Method instead of the original final sort phase, a pluggable internal
// plane-sweep algorithm (list- or trie-based sweep-line status), a tuning
// factor on the partition-count formula, and an explicit recursive
// repartitioning strategy.
//
// The algorithm proceeds in phases:
//
//  1. Partitioning — both relations are divided into P partitions using an
//     equidistant grid of NT ≥ P tiles hashed onto partitions; a KPE is
//     written to every partition owning a tile its rectangle overlaps
//     (replication).
//  2. Repartitioning — partition pairs exceeding the memory budget are
//     recursively split with finer grids.
//  3. Join — each partition pair is loaded and joined in memory.
//  4. Duplicate removal — either the original external sort of the result
//     pairs (DupSort), free of any extra phase with the Reference Point
//     Method (DupRPM), which tests each produced pair on-line, or free by
//     construction with two-layer space-oriented partitioning (DupTLSP),
//     which tags every replicated copy with a secondary class so that
//     most candidate pairs are ruled out without any geometric test
//     (tlsp.go).
package pbsm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// DupMethod selects how duplicates in the response set are eliminated.
type DupMethod int

const (
	// DupRPM is the paper's on-line Reference Point Method (§3.2.1): a
	// result is reported only if its reference point falls in the region
	// of the partition pair being processed. No extra phase, no extra
	// I/O, pipelining preserved.
	DupRPM DupMethod = iota
	// DupSort is the original PBSM strategy [PD 96]: all join-phase
	// results are written to disk, sorted externally, and deduplicated in
	// a final blocking phase.
	DupSort
	// DupTLSP is two-layer space-oriented partitioning (tlsp.go): each
	// replicated copy carries a secondary class (A/B/C/D by which
	// overlapped tile holds the rectangle's bottom-left corner), and the
	// join emits a candidate only when the two classes share no set bit —
	// duplicate-free by construction, with the reference-point test
	// needed only on repartitioned residual pairs.
	DupTLSP
)

// String names the method. Unknown values are named dup(N) rather than
// silently masquerading as a real method in stats, traces and bench
// artifacts.
func (d DupMethod) String() string {
	switch d {
	case DupRPM:
		return "rpm"
	case DupSort:
		return "sort"
	case DupTLSP:
		return "tlsp"
	}
	return fmt.Sprintf("dup(%d)", int(d))
}

// ParseDupMethod maps a flag value to a DupMethod. Unknown strings are
// an error naming the valid methods — a typo must never silently select
// a different duplicate-handling semantics.
func ParseDupMethod(s string) (DupMethod, error) {
	switch s {
	case "rpm":
		return DupRPM, nil
	case "sort":
		return DupSort, nil
	case "tlsp":
		return DupTLSP, nil
	}
	return 0, joinerr.Wrap("pbsm", "config", fmt.Errorf("unknown duplicate method %q (valid: rpm, sort, tlsp)", s))
}

// Phase indexes the per-phase statistics.
type Phase int

// The four PBSM phases of Figure 1.
const (
	PhasePartition Phase = iota
	PhaseRepartition
	PhaseJoin
	PhaseDup
	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhasePartition:
		return "partition"
	case PhaseRepartition:
		return "repartition"
	case PhaseJoin:
		return "join"
	case PhaseDup:
		return "dup-removal"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Config controls a PBSM join.
type Config struct {
	// Disk is the simulated device for partition files, repartitioning
	// and the optional duplicate-removal sort. Required.
	Disk *diskio.Disk
	// Memory is the byte budget M of formula (1). Partition pairs are
	// sized to fit in it. Required (> 0).
	Memory int64
	// Algorithm selects the internal in-memory join. Default: list sweep,
	// the original PBSM choice.
	Algorithm sweep.Kind
	// Dup selects the duplicate-elimination strategy. Default DupRPM.
	Dup DupMethod
	// TuneFactor is the multiplier t > 1 applied to formula (1) before
	// the ceiling (§3.2.3), avoiding partition pairs that just barely
	// miss the memory budget. Values ≤ 1 select the default 1.25.
	TuneFactor float64
	// TilesPerPartition sets NT = TilesPerPartition × P. Values < 1
	// select the default 4.
	TilesPerPartition int
	// BufPages is the sequential I/O buffer size in pages for every file
	// stream. Values < 1 select 4.
	BufPages int
	// MaxRecurse bounds repartitioning recursion; beyond it a pair is
	// joined in memory even if over budget (counted in MemoryOverflows).
	// Values < 1 select 8.
	MaxRecurse int
	// Parallel is the worker count of the join phase (values < 2 keep
	// it sequential) on the shared scheduler of package sched. With
	// P > 1 the units are partition pairs; with P = 1 the two inputs
	// are sorted as two units and the single in-memory sweep runs as
	// slabs of the serial sweep order (sweep.Cut). Each worker joins
	// with a private internal algorithm; result pairs are buffered per
	// unit and released in unit order, so the emitted sequence and
	// Stats.Tests are IDENTICAL to a sequential run's (Stats.Touches
	// may differ at P = 1, see sweep.Slab). Parallelism changes only
	// wall-clock time, never the I/O cost accounting, the result set or
	// its order.
	Parallel int
	// Gov, when non-nil, admission-controls the memory the extra
	// parallel workers claim beyond the join's own admission (one
	// partition pair's working set each; at P = 1, one slab's share of
	// the input).
	Gov *govern.Governor
	// Trace is the parent span phase/pair/heal spans nest under; nil
	// disables instrumentation.
	Trace *trace.Span
	// Cancel is the join's cancellation checkpoint; nil disables
	// cancellation. Every data-dependent loop polls it, so a canceled
	// join unwinds within a bounded amount of work.
	Cancel *govern.Check
	// Metrics, when non-nil, publishes live counters (pairs completed,
	// duplicates suppressed, RPM tests, replication copies) and feeds
	// the per-pool scheduler series.
	Metrics *metrics.Registry
	// Progress, when non-nil, receives the join's planned pair costs
	// and per-pair completions for the percent-complete/ETA estimator.
	Progress *metrics.Progress
}

func (c *Config) tune() float64 {
	if c.TuneFactor <= 1 {
		return 1.25
	}
	return c.TuneFactor
}

func (c *Config) tilesPerPart() int {
	if c.TilesPerPartition < 1 {
		return 4
	}
	return c.TilesPerPartition
}

func (c *Config) bufPages() int {
	if c.BufPages < 1 {
		return 4
	}
	return c.BufPages
}

func (c *Config) maxRecurse() int {
	if c.MaxRecurse < 1 {
		return 8
	}
	return c.MaxRecurse
}

func (c *Config) workers() int {
	if c.Parallel < 2 {
		return 1
	}
	return c.Parallel
}

// bufPagesFor sizes each stream's I/O buffer when streams files are open
// at once, so that the buffers together stay within the memory budget —
// at a small M with many partitions, each output buffer shrinks to a
// single page and every flush pays the positioning cost, which is exactly
// how a real PBSM degrades at tiny memory.
func (c *Config) bufPagesFor(streams int) int {
	if streams < 1 {
		streams = 1
	}
	per := int(c.Memory / int64(streams) / int64(c.Disk.PageSize()))
	if per < 1 {
		return 1
	}
	if per > c.bufPages() {
		return c.bufPages()
	}
	return per
}

// Stats reports what a PBSM join did. Simulated I/O and measured CPU are
// kept per phase so the experiments of Figures 3 and 6 can be read off
// directly.
type Stats struct {
	P, NT int // partition and tile counts of the initial grid

	Results         int64 // pairs delivered to the caller (duplicate-free)
	RawResults      int64 // pairs produced by the join phase before dedup
	CopiesR         int64 // KPE copies written for R in the partition phase
	CopiesS         int64 // likewise for S
	Repartitions    int   // number of repartitioning splits performed
	MemoryOverflows int   // pairs joined over budget at the recursion cap
	Healed          int   // partition pairs re-derived after a checksum failure
	Tests           int64 // candidate tests of the internal algorithm
	Touches         int64 // status node touches of the internal algorithm

	// TLSPSkipped counts candidates rejected by the TLSP class test
	// alone — each one a duplicate suppressed without computing a
	// reference point. TLSPRefTests counts the residual candidates that
	// still needed the reference-point test (only repartitioned pairs
	// have any). Both are zero unless Dup == DupTLSP.
	TLSPSkipped  int64
	TLSPRefTests int64

	PhaseIO  [numPhases]diskio.Stats
	PhaseCPU [numPhases]time.Duration

	// FirstResultCPU and FirstResultIO capture the elapsed CPU time and
	// the simulated I/O cost units consumed when the first result reached
	// the caller: the pipelining measure of §3.1 — with DupSort no result
	// appears before the final sort starts scanning.
	FirstResultCPU time.Duration
	FirstResultIO  float64
}

// TotalIO sums the per-phase I/O statistics.
func (s *Stats) TotalIO() diskio.Stats {
	var t diskio.Stats
	for i := range s.PhaseIO {
		t.Add(s.PhaseIO[i])
	}
	return t
}

// TotalCPU sums the per-phase CPU times.
func (s *Stats) TotalCPU() time.Duration {
	var t time.Duration
	for _, d := range s.PhaseCPU {
		t += d
	}
	return t
}

// ReplicationRate returns copies-written / input-size for relation sizes
// nr and ns, the redundancy measure of §5.1.
func (s *Stats) ReplicationRate(nr, ns int) float64 {
	if nr+ns == 0 {
		return 0
	}
	return float64(s.CopiesR+s.CopiesS) / float64(nr+ns)
}

// Join computes the spatial intersection join of R and S, delivering each
// result pair exactly once to emit. The inputs are never modified.
func Join(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Stats, error) {
	if cfg.Disk == nil {
		return Stats{}, joinerr.Wrap("pbsm", "config", fmt.Errorf("Config.Disk is required"))
	}
	if cfg.Memory <= 0 {
		return Stats{}, joinerr.Wrap("pbsm", "config", fmt.Errorf("Config.Memory must be positive, got %d", cfg.Memory))
	}
	switch cfg.Dup {
	case DupRPM, DupSort, DupTLSP:
	default:
		return Stats{}, joinerr.Wrap("pbsm", "config",
			fmt.Errorf("unknown Config.Dup %v (valid: %v, %v, %v)", cfg.Dup, DupRPM, DupSort, DupTLSP))
	}
	j := &joiner{cfg: cfg, alg: sweep.New(cfg.Algorithm), reg: cfg.Disk.NewRegistry()}
	j.resolveCounters()
	// One sweep covers every exit path — success, failure, cancellation —
	// so no partition, repartition, spool or sort file outlives the join.
	defer j.reg.Sweep()
	err := j.run(R, S, emit)
	j.stats.Tests += j.alg.Tests()
	j.stats.Touches += j.alg.Touches()
	if t := cfg.Trace; t != nil {
		// The paper-specific totals: how many raw join-phase results the
		// duplicate-elimination strategy suppressed (each raw result costs
		// one reference-point test under RPM), how much the partitioning
		// replicated, and what the internal algorithm's status structure
		// cost in traversal work.
		t.Count("pbsm.dup.suppressed", j.stats.RawResults-j.stats.Results)
		if cfg.Dup == DupRPM {
			t.Count("pbsm.rpm.tests", j.stats.RawResults)
		}
		if cfg.Dup == DupTLSP {
			// The TLSP savings: candidates rejected by the class test
			// alone versus the residual ones that still paid a
			// reference-point test.
			t.Count("pbsm.tlsp.pairs.skipped", j.stats.TLSPSkipped)
			t.Count("pbsm.tlsp.ref.tests", j.stats.TLSPRefTests)
		}
		t.Count("pbsm.replication.copies", j.stats.CopiesR+j.stats.CopiesS)
		t.Count("pbsm.sweep.tests", j.stats.Tests)
		t.Count("pbsm.sweep.touches."+j.alg.Name(), j.stats.Touches)
		t.Count("pbsm.healed", int64(j.stats.Healed))
		t.Count("pbsm.repartitions", int64(j.stats.Repartitions))
	}
	j.publishMetrics()
	return j.stats, err
}

type joiner struct {
	cfg   Config
	alg   sweep.Algorithm
	stats Stats
	reg   *diskio.Registry // every temp file of this join; swept on exit

	start      time.Time // start of the whole join, for first-result stats
	startUnits float64
	emit       func(geom.Pair)
	dupWriter  *recfile.PairWriter // result spool when Dup == DupSort

	// par is true while the join phase runs on parallel workers; stats
	// mutations inside the phase then go through mu (or, for result
	// delivery, through the collector's own serialization). It is set
	// before the workers start and cleared after they have all joined.
	par bool
	mu  sync.Mutex

	// baseR/baseS/grid are kept for self-healing: when a top-level
	// partition file fails checksum verification before its pair emitted
	// anything, the partition is re-derived from the base inputs.
	baseR, baseS []geom.KPE
	grid         *grid

	// pairCost holds each top pair's planned iocost.PairCost (progress
	// weights; nil without a Progress), read-only once the join phase
	// starts. pairsDone, rpmTests and tlspSkipped are live counter
	// handles resolved once up front (nil-safe, see resolveCounters);
	// the latter two are bumped from the join loop in batches of at
	// most liveBatch, so mid-flight /metrics scrapes see them move
	// instead of jumping at join end.
	pairCost    []float64
	pairsDone   *metrics.Counter
	rpmTests    *metrics.Counter
	tlspSkipped *metrics.Counter
}

// healableError tags a corruption error that was detected before the
// affected top-level partition pair emitted any result, so re-deriving
// the pair from the base inputs and reprocessing it is exactly-once
// safe. Corruption detected after partial emission must NOT be healed by
// reprocessing (it would duplicate results) and stays unwrapped.
type healableError struct{ err error }

func (e *healableError) Error() string { return e.err.Error() }
func (e *healableError) Unwrap() error { return e.err }

// markHealable wraps corrupt errors detected pre-emission.
func markHealable(err error) error {
	if err == nil || !recfile.IsCorrupt(err) {
		return err
	}
	return &healableError{err: err}
}

// phaseTimer attributes wall-clock CPU and disk-cost deltas to a phase,
// and mirrors the interval as a trace span when tracing is on. A phase
// may begin/end many times (once per partition pair in the join phase),
// so each activation is its own span while the Stats fields accumulate.
type phaseTimer struct {
	j        *joiner
	phase    Phase
	t0       time.Time
	io0      diskio.Stats
	sp       *trace.Span
	statless bool
}

func (j *joiner) begin(p Phase) phaseTimer {
	return j.beginNamed(p, p.String())
}

// beginNamed attributes costs to phase p but names the trace span
// differently — the heal path charges the partition phase, yet must be
// visible as "heal" in the trace. Activations opened inside the parallel
// join region are span-only: the region's single outer timer charges the
// phase once (overlapping workers would double-count wall time, and
// concurrent writes to the Stats arrays would race).
func (j *joiner) beginNamed(p Phase, name string) phaseTimer {
	pt := phaseTimer{j: j, phase: p, sp: j.cfg.Trace.Child(name)}
	if j.par {
		pt.statless = true
		return pt
	}
	pt.t0 = time.Now()
	pt.io0 = j.cfg.Disk.Stats()
	return pt
}

func (pt phaseTimer) end() {
	if !pt.statless {
		pt.j.stats.PhaseCPU[pt.phase] += time.Since(pt.t0)
		pt.j.stats.PhaseIO[pt.phase].Add(pt.j.cfg.Disk.Stats().Sub(pt.io0))
	}
	pt.sp.End()
}

// bump mutates the rarely-updated Stats counters (Healed, Repartitions,
// MemoryOverflows): under the stats mutex when the join phase is
// parallel, lock-free on the serial path.
func (j *joiner) bump(f func()) {
	if j.par {
		j.mu.Lock()
		defer j.mu.Unlock()
	}
	f()
}

// deliver hands one duplicate-free pair to the caller, recording
// time-to-first-result. In parallel mode it is only ever invoked as the
// collector's sink, which serializes it.
func (j *joiner) deliver(p geom.Pair) {
	if j.stats.Results == 0 {
		j.stats.FirstResultCPU = time.Since(j.start)
		j.stats.FirstResultIO = j.cfg.Disk.Stats().CostUnits - j.startUnits
	}
	j.stats.Results++
	j.emit(p)
}

func (j *joiner) run(R, S []geom.KPE, emit func(geom.Pair)) error {
	j.start = time.Now()
	j.startUnits = j.cfg.Disk.Stats().CostUnits
	j.emit = emit

	// Phase 1: compute P via formula (1) with the tuning factor and
	// partition both relations.
	p := int(math.Ceil(j.cfg.tune() * float64(int64(len(R)+len(S))*geom.KPESize) / float64(j.cfg.Memory)))
	if p < 1 {
		p = 1
	}
	j.stats.P = p

	var dupFile *diskio.File
	if j.cfg.Dup == DupSort {
		dupFile = j.reg.Create()
		j.dupWriter = recfile.NewPairWriter(dupFile, j.cfg.bufPages())
	}

	if p == 1 {
		// Everything fits: a single in-memory join, no partition files.
		j.cfg.Progress.SetTotal(1)
		if err := j.joinInMemory(R, S, j.deliver); err != nil {
			return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
		}
		j.pairsDone.Inc()
		j.cfg.Progress.Add(1)
	} else {
		var g *grid
		if j.cfg.Dup == DupTLSP {
			// TLSP: tiles are partitions, and the count may round up past
			// formula (1)'s p to fill the rectangle of tiles.
			g = newTLSPGrid(p)
			p = g.parts
			j.stats.P = p
		} else {
			g = newGrid(p*j.cfg.tilesPerPart(), p)
		}
		j.stats.NT = g.nx * g.ny
		j.baseR, j.baseS, j.grid = R, S, g

		pt := j.begin(PhasePartition)
		pt.sp.AddRecords(int64(len(R) + len(S)))
		pt.sp.SetAttr("partitions", int64(p))
		filesR, copiesR, errR := j.partitionInput(R, g)
		filesS, copiesS, errS := j.partitionInput(S, g)
		j.stats.CopiesR, j.stats.CopiesS = copiesR, copiesS
		pt.sp.SetAttr("copies", copiesR+copiesS)
		pt.end()
		// Partition files are registered at creation; the joiner's sweep
		// removes whatever this run leaves behind, on every exit path.
		if errR != nil {
			return joinerr.Wrap("pbsm", PhasePartition.String(), errR)
		}
		if errS != nil {
			return joinerr.Wrap("pbsm", PhasePartition.String(), errS)
		}
		if j.cfg.Trace != nil {
			// Partition fill skew: records landing in each of the P
			// partitions (both relations). NumKPEs is length-derived, so
			// observing it here is free of I/O charge.
			for i := 0; i < p; i++ {
				j.cfg.Trace.Observe("pbsm.partition.fill",
					float64(recfile.NumKPEs(filesR[i])+recfile.NumKPEs(filesS[i])))
			}
		}
		// Price every top pair for the progress estimator while the
		// partition sizes are at hand.
		j.initProgress(filesR, filesS, p)

		if workers := j.cfg.workers(); workers > 1 {
			// Phases 2+3, parallel: every top pair is one ordered unit on
			// the shared scheduler — including oversized pairs (their
			// repartition recursion stays inside the unit) and corrupt
			// ones (healing swaps only the unit's own file slots). The
			// collector buffers each pair's results and releases them in
			// partition order, so the emitted sequence is identical to a
			// sequential run's. One outer timer charges the whole region
			// to the join phase; activations inside are span-only.
			pt := j.begin(PhaseJoin)
			pt.sp.SetAttr("workers", int64(workers))
			col := sched.NewCollector(p, j.deliver)
			algs := make([]sweep.Algorithm, workers)
			for w := range algs {
				algs[w] = sweep.New(j.cfg.Algorithm)
			}
			j.par = true
			err := sched.Run(p, sched.Options{
				Workers: workers,
				Name:    "pair-worker",
				Span:    pt.sp,
				Cancel:  j.cfg.Cancel,
				Gov:     j.cfg.Gov,
				UnitMem: j.cfg.Memory,
				Metrics: j.cfg.Metrics,
			}, func(w, i int) error {
				defer col.Done(i)
				err := j.processTopPair(algs[w], func(pr geom.Pair) { col.Emit(i, pr) }, filesR, filesS, i, g)
				if err == nil {
					j.pairDone(i)
				}
				return err
			})
			j.par = false
			pt.end()
			for _, a := range algs {
				j.stats.Tests += a.Tests()
				j.stats.Touches += a.Touches()
			}
			if err != nil {
				return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
			}
		} else {
			// Phases 2+3: repartition as needed and join each pair. A
			// partition pair is an expensive unit, so poll immediately:
			// cancellation latency is bounded by one pair, not 256.
			for i := 0; i < p; i++ {
				if err := j.cfg.Cancel.Now(); err != nil {
					return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
				}
				if err := j.processTopPair(j.alg, j.deliver, filesR, filesS, i, g); err != nil {
					return err
				}
				j.pairDone(i)
			}
		}
	}

	// Phase 4 (original PBSM only): sort the spooled result pairs and
	// drop duplicates.
	if j.cfg.Dup == DupSort {
		pt := j.begin(PhaseDup)
		err := j.dupSortPhase(dupFile, pt.sp)
		pt.end()
		if err != nil {
			return joinerr.Wrap("pbsm", PhaseDup.String(), err)
		}
	}
	return nil
}

// processTopPair joins top-level partition pair i, healing it once by
// re-derivation from the base inputs if a checksum failure is detected
// before the pair emitted anything. It is safe as a concurrent scheduler
// unit: it touches only slot i of the shared file slices, and its stats
// mutations go through bump.
func (j *joiner) processTopPair(alg sweep.Algorithm, sink func(geom.Pair), filesR, filesS []*diskio.File, i int, g *grid) error {
	// Under RPM the pair's region is the partition's tile set, consulted
	// per raw result. Under TLSP the top-level dedup is the class test —
	// the region chain starts empty and only repartitioning adds inner
	// regions for the residual reference-point test.
	var reg region = gridRegion{g: g, part: i}
	if j.cfg.Dup == DupTLSP {
		reg = wholeSpace{}
	}
	err := j.processPair(alg, sink, filesR[i], filesS[i], reg, reg, 0)
	var he *healableError
	if err == nil || !errors.As(err, &he) {
		return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
	}
	fr, fs, herr := j.healPartition(g, i)
	if herr != nil {
		return joinerr.Wrap("pbsm", PhaseJoin.String(), fmt.Errorf("%w (heal failed: %w)", err, herr))
	}
	j.reg.Remove(filesR[i])
	j.reg.Remove(filesS[i])
	filesR[i], filesS[i] = fr, fs
	j.bump(func() { j.stats.Healed++ })
	if err := j.processPair(alg, sink, fr, fs, reg, reg, 0); err != nil {
		return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
	}
	return nil
}

// healPartition re-derives the two files of top-level partition part from
// the in-memory base inputs, exactly as the partition phase would have
// written them. Its I/O is charged to the partition phase.
func (j *joiner) healPartition(g *grid, part int) (fr, fs *diskio.File, err error) {
	pt := j.beginNamed(PhasePartition, "heal")
	pt.sp.SetAttr("part", int64(part))
	defer pt.end()
	fr, err = j.rederive(j.baseR, g, part)
	if err != nil {
		return nil, nil, err
	}
	fs, err = j.rederive(j.baseS, g, part)
	if err != nil {
		j.reg.Remove(fr)
		return nil, nil, err
	}
	return fr, fs, nil
}

// rederive writes a fresh copy of one partition's file for input ks.
func (j *joiner) rederive(ks []geom.KPE, g *grid, part int) (*diskio.File, error) {
	f := j.reg.Create()
	w := recfile.NewKPEWriter(f, j.cfg.bufPages())
	stamp := make([]int, g.parts)
	for i := range stamp {
		stamp[i] = -1
	}
	dests := make([]copyDest, 0, 8)
	chk := j.cfg.Cancel.Stride()
	for idx := range ks {
		if err := chk.Point(); err != nil {
			j.reg.Remove(f)
			return nil, err
		}
		dests = g.copiesOf(ks[idx].Rect, dests[:0], stamp, idx)
		for _, d := range dests {
			if d.part != part {
				continue
			}
			k := ks[idx]
			k.Class = d.class
			if err := w.Write(k); err != nil {
				j.reg.Remove(f)
				return nil, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		j.reg.Remove(f)
		return nil, err
	}
	return f, nil
}

// dupSortPhase sorts the spooled result pairs and delivers them
// duplicate-free.
func (j *joiner) dupSortPhase(dupFile *diskio.File, sp *trace.Span) error {
	if err := j.dupWriter.Flush(); err != nil {
		return err
	}
	sorted, _, err := extsort.Sort(dupFile, extsort.Config{
		Disk:       j.cfg.Disk,
		RecordSize: geom.PairSize,
		Memory:     j.cfg.Memory,
		BufPages:   j.cfg.bufPages(),
		Trace:      sp,
		Reg:        j.reg,
		Cancel:     j.cfg.Cancel,
		Less: func(a, b []byte) bool {
			return geom.DecodePair(a).Less(geom.DecodePair(b))
		},
	})
	if err != nil {
		return err
	}
	defer j.reg.Remove(sorted)
	r := recfile.NewPairReader(sorted, j.cfg.bufPages())
	var prev geom.Pair
	first := true
	chk := j.cfg.Cancel.Stride()
	for {
		if err := chk.Point(); err != nil {
			return err
		}
		pr, ok, err := r.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if first || pr != prev {
			j.deliver(pr)
		}
		prev, first = pr, false
	}
	return nil
}

// partitionInput writes each KPE of ks into every partition file whose
// tiles its rectangle overlaps, returning the files and the number of
// copies written.
func (j *joiner) partitionInput(ks []geom.KPE, g *grid) ([]*diskio.File, int64, error) {
	files := make([]*diskio.File, g.parts)
	writers := make([]*recfile.KPEWriter, g.parts)
	buf := j.cfg.bufPagesFor(g.parts)
	for i := range files {
		files[i] = j.reg.Create()
		writers[i] = recfile.NewKPEWriter(files[i], buf)
	}
	stamp := make([]int, g.parts)
	for i := range stamp {
		stamp[i] = -1
	}
	dests := make([]copyDest, 0, 8)
	var copies int64
	chk := j.cfg.Cancel.Stride()
	for idx := range ks {
		if err := chk.Point(); err != nil {
			return files, copies, err
		}
		dests = g.copiesOf(ks[idx].Rect, dests[:0], stamp, idx)
		for _, d := range dests {
			k := ks[idx]
			k.Class = d.class
			if err := writers[d.part].Write(k); err != nil {
				return files, copies, err
			}
			copies++
		}
	}
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			return files, copies, err
		}
	}
	return files, copies, nil
}

// verifyEmptySides checks that every side of a pair reporting zero
// records really is an intact empty stream: NumKPEs is length-derived,
// so a file torn below one frame header masquerades as empty and
// skipping it would silently drop its records from the result. The
// verification I/O (one page per empty side) is charged to the join
// phase.
func (j *joiner) verifyEmptySides(fr, fs *diskio.File) error {
	pt := j.beginNamed(PhaseJoin, "verify-empty")
	defer pt.end()
	if err := recfile.VerifyEmptyKPEs(fr, j.cfg.bufPages()); err != nil {
		return err
	}
	return recfile.VerifyEmptyKPEs(fs, j.cfg.bufPages())
}

// processPair joins the partition pair (fr, fs), repartitioning
// recursively when the pair exceeds the memory budget (§3.2.3).
func (j *joiner) processPair(alg sweep.Algorithm, sink func(geom.Pair), fr, fs *diskio.File, regR, regS region, depth int) error {
	if err := j.cfg.Cancel.Now(); err != nil {
		return err
	}
	nr, ns := recfile.NumKPEs(fr), recfile.NumKPEs(fs)
	if nr == 0 || ns == 0 {
		// Nothing can join — but an apparently empty file may be a torn
		// stream, so verify before skipping the pair.
		err := j.verifyEmptySides(fr, fs)
		if depth == 0 {
			err = markHealable(err)
		}
		return err
	}
	size := (nr + ns) * geom.KPESize
	if size > j.cfg.Memory && depth < j.cfg.maxRecurse() {
		return j.repartitionPair(alg, sink, fr, fs, regR, regS, depth)
	}
	if size > j.cfg.Memory {
		j.bump(func() { j.stats.MemoryOverflows++ })
	}

	pt := j.begin(PhaseJoin)
	pt.sp.AddRecords(nr + ns)
	defer pt.end()
	rs, err := recfile.ReadAllKPEs(fr, j.cfg.bufPages())
	if err == nil {
		var ss []geom.KPE
		ss, err = recfile.ReadAllKPEs(fs, j.cfg.bufPages())
		if err == nil {
			return j.joinLoaded(alg, sink, rs, ss, regR, regS)
		}
	}
	if depth == 0 {
		// The pair's own files failed before anything was emitted:
		// re-derivation is safe.
		err = markHealable(err)
	}
	return err
}

// slabsPerWorker is how many slabs of the in-memory sweep each worker
// gets on average. The cut balances events, not tests, so more than one
// slab per worker evens out the uneven ones; a few keep the carry-in
// scans (each slab rescans the events before it) cheap.
const slabsPerWorker = 3

// joinInMemory is the whole join when formula (1) gives P = 1: no
// partition files, one pair covering the whole space. R and S are
// copied (the sweep reorders them) and sorted as two units; the sorted
// inputs are then cut into slabs of the serial sweep (sweep.Cut), and
// the slabs run as ordered units on the shared scheduler, each worker
// with its own algorithm and a collector restoring the serial emission
// order. Emitted sequence and Tests are those of one serial sweep at
// every worker count.
func (j *joiner) joinInMemory(R, S []geom.KPE, sink func(geom.Pair)) error {
	pt := j.begin(PhaseJoin)
	defer pt.end()
	pt.sp.AddRecords(int64(len(R) + len(S)))
	workers := j.cfg.workers()
	k := workers * slabsPerWorker
	opts := sched.Options{
		Workers: workers,
		Name:    "sort-worker",
		Span:    pt.sp,
		Cancel:  j.cfg.Cancel,
		Gov:     j.cfg.Gov,
		// An extra worker adds one slab's status and buffered results.
		UnitMem: int64(len(R)+len(S)) * geom.KPESize / int64(k),
		Metrics: j.cfg.Metrics,
	}
	in := [2][]geom.KPE{R, S}
	sorted := [2][]geom.KPE{make([]geom.KPE, len(R)), make([]geom.KPE, len(S))}
	err := sched.Run(2, opts, func(_, i int) error {
		copy(sorted[i], in[i])
		if j.cfg.Dup == DupTLSP {
			// No replication happened, so no copy ever got a class;
			// whatever the caller left in Class must not veto results.
			if err := clearClasses(sorted[i], j.cfg.Cancel); err != nil {
				return err
			}
		}
		j.alg.Sort(sorted[i])
		return nil
	})
	if err != nil {
		return err
	}
	rs, ss := sorted[0], sorted[1]
	if workers == 1 {
		k = 1
	}
	slabs := j.alg.Cut(rs, ss, k)
	algs := make([]sweep.Algorithm, workers)
	algs[0] = j.alg
	for w := 1; w < workers; w++ {
		algs[w] = sweep.New(j.cfg.Algorithm)
	}
	// One slab streams straight to the sink; several go through a
	// collector that restores slab order.
	var col *sched.Collector
	if len(slabs) > 1 {
		col = sched.NewCollector(len(slabs), sink)
		pt.sp.SetAttr("workers", int64(workers))
	}
	opts.Name = "slab-worker"
	j.par = workers > 1
	err = sched.Run(len(slabs), opts, func(w, i int) error {
		out := sink
		if col != nil {
			defer col.Done(i)
			out = func(p geom.Pair) { col.Emit(i, p) }
		}
		return j.joinSlab(algs[w], out, rs, ss, slabs[i], wholeSpace{}, wholeSpace{})
	})
	j.par = false
	for _, a := range algs[1:] {
		j.stats.Tests += a.Tests()
		j.stats.Touches += a.Touches()
	}
	return err
}

// joinLoaded runs the internal algorithm on an in-memory partition pair
// and routes each produced pair through duplicate handling.
func (j *joiner) joinLoaded(alg sweep.Algorithm, sink func(geom.Pair), rs, ss []geom.KPE, regR, regS region) error {
	alg.Sort(rs)
	alg.Sort(ss)
	return j.joinSlab(alg, sink, rs, ss, sweep.Whole(rs, ss), regR, regS)
}

// liveBatch bounds how many per-result events one join call counts
// locally before adding them to the live metrics counter.
const liveBatch = 1024

// joinSlab joins one slab of a loaded pair and routes each produced pair
// through duplicate handling. The per-result counts stay in locals and
// reach Stats once per call (through bump) and the live counters in
// batches, so parallel calls share no lock per result: the sink (a
// collector emit in parallel mode) serializes delivery itself, and only
// the shared DupSort spool write takes the stats mutex.
func (j *joiner) joinSlab(alg sweep.Algorithm, sink func(geom.Pair), rs, ss []geom.KPE, sl sweep.Slab, regR, regS region) error {
	var werr error
	// Under TLSP the class test is the whole top-level duplicate story;
	// a reference-point test is owed only when repartitioning wrapped
	// inner regions around the pair (the class says nothing about which
	// sub-partition may report). wholeSpace on both sides means depth 0.
	needRef := false
	if j.cfg.Dup == DupTLSP {
		_, rWhole := regR.(wholeSpace)
		_, sWhole := regS.(wholeSpace)
		needRef = !rWhole || !sWhole
	}
	// live mirrors the method's per-result counter (RPM tests or TLSP
	// class skips) to metrics; unposted events are added on overflow
	// and at the end of the call.
	live := j.rpmTests
	if j.cfg.Dup == DupTLSP {
		live = j.tlspSkipped
	}
	var raw, skipped, refTests, unposted int64
	tally := func() {
		unposted++
		if unposted == liveBatch {
			live.Add(unposted)
			unposted = 0
		}
	}
	alg.JoinSlab(rs, ss, sl, func(r, s geom.KPE) {
		raw++
		switch j.cfg.Dup {
		case DupRPM:
			tally()
			x := geom.RefPoint(r.Rect, s.Rect)
			if regR.contains(x) && regS.contains(x) {
				sink(geom.Pair{R: r.ID, S: s.ID})
			}
		case DupSort:
			if werr == nil {
				werr = j.spool(geom.Pair{R: r.ID, S: s.ID})
			}
		case DupTLSP:
			if r.Class&s.Class != 0 {
				// Another tile holds both corners' max: this copy pair
				// provably duplicates that tile's result. Rejected by
				// two bit operations, no reference point computed.
				skipped++
				tally()
			} else if needRef {
				refTests++
				x := geom.RefPoint(r.Rect, s.Rect)
				if regR.contains(x) && regS.contains(x) {
					sink(geom.Pair{R: r.ID, S: s.ID})
				}
			} else {
				sink(geom.Pair{R: r.ID, S: s.ID})
			}
		}
	})
	live.Add(unposted)
	j.bump(func() {
		j.stats.RawResults += raw
		j.stats.TLSPSkipped += skipped
		j.stats.TLSPRefTests += refTests
	})
	return werr
}

// spool appends one raw result to the DupSort spool, which every pair
// and slab shares: under the stats mutex while the join phase runs in
// parallel.
func (j *joiner) spool(p geom.Pair) error {
	if j.par {
		j.mu.Lock()
		defer j.mu.Unlock()
	}
	return j.dupWriter.Write(p)
}

// repartitionPair splits the larger side of an oversized pair with a
// finer grid and recurses on each sub-pair against the unsplit side.
func (j *joiner) repartitionPair(alg sweep.Algorithm, sink func(geom.Pair), fr, fs *diskio.File, regR, regS region, depth int) error {
	j.bump(func() { j.stats.Repartitions++ })
	nr, ns := recfile.NumKPEs(fr), recfile.NumKPEs(fs)
	size := (nr + ns) * geom.KPESize
	n := int(math.Ceil(j.cfg.tune() * float64(size) / float64(j.cfg.Memory)))
	if n < 2 {
		n = 2
	}
	sub := newGrid(n*j.cfg.tilesPerPart(), n)

	splitR := nr >= ns
	src := fr
	if !splitR {
		src = fs
	}

	pt := j.begin(PhaseRepartition)
	files := make([]*diskio.File, n)
	writers := make([]*recfile.KPEWriter, n)
	buf := j.cfg.bufPagesFor(n + 1)
	for i := range files {
		files[i] = j.reg.Create()
		writers[i] = recfile.NewKPEWriter(files[i], buf)
	}
	removeFrom := func(lo int) {
		for i := lo; i < n; i++ {
			j.reg.Remove(files[i])
		}
	}
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	parts := make([]int, 0, 8)
	rd := recfile.NewKPEReader(src, buf)
	gen := 0
	var err error
	chk := j.cfg.Cancel.Stride()
	for err == nil {
		if err = chk.Point(); err != nil {
			break
		}
		var k geom.KPE
		var ok bool
		k, ok, err = rd.Next()
		if err != nil || !ok {
			break
		}
		parts = sub.partitionsOf(k.Rect, parts[:0], stamp, gen)
		gen++
		for _, pi := range parts {
			if err = writers[pi].Write(k); err != nil {
				break
			}
		}
	}
	if err == nil {
		for _, w := range writers {
			if err = w.Flush(); err != nil {
				break
			}
		}
	}
	pt.end()
	if err != nil {
		removeFrom(0)
		if depth == 0 {
			// The tear was found while splitting a top-level file, before
			// any sub-pair was joined: re-derivation is safe.
			err = markHealable(err)
		}
		return err
	}

	for i := 0; i < n; i++ {
		inner := gridRegion{g: sub, part: i}
		var perr error
		if splitR {
			perr = j.processPair(alg, sink, files[i], fs, andRegion{regR, inner}, regS, depth+1)
		} else {
			perr = j.processPair(alg, sink, fr, files[i], regR, andRegion{regS, inner}, depth+1)
		}
		j.reg.Remove(files[i])
		if perr != nil {
			removeFrom(i + 1)
			return perr
		}
	}
	return nil
}
