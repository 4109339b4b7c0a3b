package pbsm

import (
	"errors"
	"fmt"
	"math"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sweep"
)

// This file is the pair-subset execution API the shard layer builds on:
// a coordinator plans the top-level grid ONCE from the full inputs
// (PlanGrid), derives any partition's records from source on demand
// (PartitionSlices — the same derivation the partition phase and the
// heal path use), and executes individual partition pairs through a
// PairExec. Because the grid, the memory budget and the repartition
// recursion are identical to a single-process run, each pair's emitted
// pair sequence is identical too — and under the Reference Point Method
// every result belongs to exactly one pair, so a union of per-pair
// sequences in partition order reproduces the serial run byte for byte,
// no matter which process executed which pair.

// GridSpec is a serializable description of the top-level PBSM grid: it
// crosses the coordinator/worker process boundary in a job frame and
// fully reconstructs the grid (tile geometry and tile→partition
// hashing, or the TLSP identity mapping) on the other side.
type GridSpec struct {
	NX    int `json:"nx"`
	NY    int `json:"ny"`
	Parts int `json:"parts"`
	// TLSP marks a two-layer space-oriented partitioning grid: tiles map
	// 1:1 to partitions and every copy carries a secondary class
	// (tlsp.go). Must agree with the executing Config.Dup.
	TLSP bool `json:"tlsp,omitempty"`
}

// PlanGrid computes the top-level grid for joining nr+ns records under
// cfg's memory budget — formula (1) with the tuning factor, exactly as
// a single-process Join would. Parts == 1 means everything fits in
// memory and no grid is used (the whole space is one partition).
// Only cfg.Memory, TuneFactor, TilesPerPartition and Dup are consulted;
// cfg.Memory must be positive.
func PlanGrid(nr, ns int, cfg Config) GridSpec {
	p := int(math.Ceil(cfg.tune() * float64(int64(nr+ns)*geom.KPESize) / float64(cfg.Memory)))
	if p < 1 {
		p = 1
	}
	tlsp := cfg.Dup == DupTLSP
	if p == 1 {
		return GridSpec{NX: 1, NY: 1, Parts: 1, TLSP: tlsp}
	}
	var g *grid
	if tlsp {
		g = newTLSPGrid(p)
	} else {
		g = newGrid(p*cfg.tilesPerPart(), p)
	}
	return GridSpec{NX: g.nx, NY: g.ny, Parts: g.parts, TLSP: tlsp}
}

// grid reconstructs the in-memory grid. Only meaningful for Parts > 1.
func (s GridSpec) grid() *grid {
	return &grid{nx: s.NX, ny: s.NY, parts: s.Parts, tlsp: s.TLSP}
}

// Valid reports whether the spec describes a usable grid. A TLSP grid
// additionally requires the 1:1 tile/partition mapping.
func (s GridSpec) Valid() bool {
	if s.TLSP && s.NX*s.NY != s.Parts {
		return false
	}
	return s.Parts >= 1 && s.NX >= 1 && s.NY >= 1 && s.NX*s.NY >= s.Parts
}

// PartitionSlices derives the records of the requested top-level
// partitions from a base input, in input order with grid replication —
// the same derivation the partition phase streams to disk and the heal
// path re-runs after corruption. Every requested partition is present
// in the result, empty ones included (an empty partition still joins —
// and seals — as an empty pair). The returned slices are freshly
// allocated except in the Parts == 1 case, where the single slice
// aliases ks; callers must treat the slices as read-only.
func PartitionSlices(ks []geom.KPE, gs GridSpec, parts []int, chk *govern.Check) (map[int][]geom.KPE, error) {
	out := make(map[int][]geom.KPE, len(parts))
	for _, p := range parts {
		if p < 0 || p >= gs.Parts {
			return nil, joinerr.Wrap("pbsm", "partition", fmt.Errorf("partition %d out of range [0, %d)", p, gs.Parts))
		}
		out[p] = nil
	}
	if gs.Parts == 1 {
		if _, ok := out[0]; ok {
			out[0] = ks
		}
		return out, nil
	}
	g := gs.grid()
	stamp := make([]int, g.parts)
	for i := range stamp {
		stamp[i] = -1
	}
	scratch := make([]copyDest, 0, 8)
	st := chk.Stride()
	for idx := range ks {
		if err := st.Point(); err != nil {
			return nil, joinerr.Wrap("pbsm", "partition", err)
		}
		scratch = g.copiesOf(ks[idx].Rect, scratch[:0], stamp, idx)
		for _, d := range scratch {
			if slice, ok := out[d.part]; ok {
				k := ks[idx]
				k.Class = d.class
				out[d.part] = append(slice, k)
			}
		}
	}
	return out, nil
}

// PartitionCounts returns how many record copies of ks land in each
// top-level partition (replication included) — the per-partition load
// the coordinator feeds into the cost model when assigning partitions
// to shards.
func PartitionCounts(ks []geom.KPE, gs GridSpec, chk *govern.Check) ([]int64, error) {
	counts := make([]int64, gs.Parts)
	if gs.Parts == 1 {
		counts[0] = int64(len(ks))
		return counts, nil
	}
	g := gs.grid()
	stamp := make([]int, g.parts)
	for i := range stamp {
		stamp[i] = -1
	}
	scratch := make([]copyDest, 0, 8)
	st := chk.Stride()
	for idx := range ks {
		if err := st.Point(); err != nil {
			return nil, joinerr.Wrap("pbsm", "partition", err)
		}
		scratch = g.copiesOf(ks[idx].Rect, scratch[:0], stamp, idx)
		for _, d := range scratch {
			counts[d.part]++
		}
	}
	return counts, nil
}

// PairExec executes individual top-level partition pairs of one planned
// join: the sharded counterpart of the join phase's per-pair loop. It
// owns a temp-file registry on cfg.Disk (swept by Close) and reuses the
// full join machinery per pair — memory-budget check, recursive
// repartitioning, RPM duplicate elimination — with the SAME Memory and
// tuning as the planning run, so each pair emits exactly the sequence
// the single-process join would emit for it.
//
// Only the duplicate-free-by-construction methods are supported — DupRPM
// and DupTLSP both make each pair's output globally duplicate-free on
// its own, which is what allows pairs to be executed by different
// processes without a cross-pair dedup phase; DupSort would need exactly
// that phase and is rejected.
// A PairExec is not safe for concurrent use; one goroutine runs pairs
// sequentially.
type PairExec struct {
	j  *joiner
	gs GridSpec
	g  *grid // nil when gs.Parts == 1
}

// NewPairExec validates cfg against gs and prepares an executor.
// cfg.Disk and a positive cfg.Memory are required; cfg.Dup must be
// DupRPM (the default) or DupTLSP, matching the TLSP-ness of the
// planned grid.
func NewPairExec(cfg Config, gs GridSpec) (*PairExec, error) {
	if cfg.Disk == nil {
		return nil, joinerr.Wrap("pbsm", "config", fmt.Errorf("Config.Disk is required"))
	}
	if cfg.Memory <= 0 {
		return nil, joinerr.Wrap("pbsm", "config", fmt.Errorf("Config.Memory must be positive, got %d", cfg.Memory))
	}
	switch cfg.Dup {
	case DupRPM, DupTLSP:
	case DupSort:
		return nil, joinerr.Wrap("pbsm", "config", fmt.Errorf("pair-subset execution requires a duplicate-free-by-construction method (DupRPM or DupTLSP), got %v", cfg.Dup))
	default:
		return nil, joinerr.Wrap("pbsm", "config", fmt.Errorf("unknown Config.Dup %v (valid: %v, %v, %v)", cfg.Dup, DupRPM, DupSort, DupTLSP))
	}
	if !gs.Valid() {
		return nil, joinerr.Wrap("pbsm", "config", fmt.Errorf("invalid grid spec %+v", gs))
	}
	if gs.TLSP != (cfg.Dup == DupTLSP) {
		return nil, joinerr.Wrap("pbsm", "config", fmt.Errorf("grid spec TLSP=%v does not match Config.Dup %v", gs.TLSP, cfg.Dup))
	}
	e := &PairExec{
		j:  &joiner{cfg: cfg, alg: sweep.New(cfg.Algorithm), reg: cfg.Disk.NewRegistry()},
		gs: gs,
	}
	e.j.resolveCounters()
	e.j.stats.P = gs.Parts
	if gs.Parts > 1 {
		e.g = gs.grid()
		e.j.stats.NT = gs.NX * gs.NY
	}
	return e, nil
}

// RunPair joins top-level partition pair part, whose per-side records
// rs and ss must be the partition's slices as derived by
// PartitionSlices. Results go to sink in the exact order the
// single-process join phase would emit them for this pair. The pair's
// partition files are written, joined (with repartition recursion when
// over budget) and removed within the call; corruption of those files
// surfaces as an error — the caller retries the whole pair, which IS
// the re-derivation heal at shard granularity.
func (e *PairExec) RunPair(part int, rs, ss []geom.KPE, sink func(geom.Pair)) error {
	if part < 0 || part >= e.gs.Parts {
		return joinerr.Wrap("pbsm", PhaseJoin.String(), fmt.Errorf("partition %d out of range [0, %d)", part, e.gs.Parts))
	}
	j := e.j
	counted := func(p geom.Pair) {
		j.stats.Results++
		sink(p)
	}
	if e.gs.Parts == 1 {
		// Everything fits: the same in-memory join as a full run's.
		return joinerr.Wrap("pbsm", PhaseJoin.String(), j.joinInMemory(rs, ss, counted))
	}

	// Write the pair's partition files exactly as the partition phase
	// would (same buffering policy), then run the standard per-pair
	// machinery on them.
	pt := j.begin(PhasePartition)
	pt.sp.AddRecords(int64(len(rs) + len(ss)))
	fr, errR := e.writeSide(rs)
	fs, errS := e.writeSide(ss)
	j.stats.CopiesR += int64(len(rs))
	j.stats.CopiesS += int64(len(ss))
	pt.end()
	remove := func() {
		j.reg.Remove(fr)
		j.reg.Remove(fs)
	}
	if errR != nil {
		remove()
		return joinerr.Wrap("pbsm", PhasePartition.String(), errR)
	}
	if errS != nil {
		remove()
		return joinerr.Wrap("pbsm", PhasePartition.String(), errS)
	}
	// Same region convention as processTopPair: RPM tests reference
	// points against the partition's tile set; TLSP's top-level dedup is
	// the class test, so the region chain starts empty.
	var reg region = gridRegion{g: e.g, part: part}
	if j.cfg.Dup == DupTLSP {
		reg = wholeSpace{}
	}
	err := j.processPair(j.alg, counted, fr, fs, reg, reg, 0)
	remove()
	// In-process healing re-derives from base inputs this executor does
	// not hold; at shard granularity the retry-with-rederivation happens
	// one level up, so the healable marker is stripped to its cause.
	var he *healableError
	if errors.As(err, &he) {
		err = he.err
	}
	return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
}

// writeSide streams one side's records to a fresh registered file with
// the partition phase's buffering policy.
func (e *PairExec) writeSide(ks []geom.KPE) (*diskio.File, error) {
	f := e.j.reg.Create()
	w := recfile.NewKPEWriter(f, e.j.cfg.bufPagesFor(e.gs.Parts))
	st := e.j.cfg.Cancel.Stride()
	for i := range ks {
		if err := st.Point(); err != nil {
			return f, err
		}
		if err := w.Write(ks[i]); err != nil {
			return f, err
		}
	}
	if err := w.Flush(); err != nil {
		return f, err
	}
	return f, nil
}

// Stats returns the executor's accumulated statistics. Call it once,
// after the last RunPair: it folds in the internal algorithm's
// cumulative counters.
func (e *PairExec) Stats() Stats {
	s := e.j.stats
	s.Tests += e.j.alg.Tests()
	s.Touches += e.j.alg.Touches()
	return s
}

// Close sweeps the executor's temp files. Always call it; it is the
// same every-exit-path sweep the full join performs.
func (e *PairExec) Close() {
	e.j.reg.Sweep()
}
