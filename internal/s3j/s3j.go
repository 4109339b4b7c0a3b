// Package s3j implements the Size Separation Spatial Join of Koudas &
// Sevcik [KS 97] and the replicated variant of Dittrich & Seeger (ICDE
// 2000, §4). S³J partitions each input with a hierarchy of equidistant
// grids — the levels of an MX-CIF quadtree — writes one level file per
// grid, sorts each level file by a locational code along a space-filling
// curve, and joins with a single synchronized scan of all level files.
//
// The original algorithm assigns a rectangle to the deepest cell that
// *contains* it, so it never replicates data and produces no duplicates —
// but small rectangles that straddle cell boundaries sink to shallow
// levels where they are tested against nearly everything. The paper's
// variant (ModeReplicate) instead derives the level from the rectangle's
// *size* and replicates it into the (at most four) cells it overlaps at
// that level; the resulting response-set duplicates are eliminated
// on-line by a modified Reference Point Method that tests the reference
// point against the deeper of the two cells being joined (§4.3).
package s3j

import (
	"container/heap"
	"fmt"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sfc"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// Mode selects the partitioning strategy.
type Mode int

const (
	// ModeOriginal is the redundancy-free S³J of [KS 97]: level by
	// containment, no replication, no duplicates.
	ModeOriginal Mode = iota
	// ModeReplicate is the paper's improvement: level by rectangle size,
	// replication into up to four cells, on-line duplicate removal via
	// the modified Reference Point Method.
	ModeReplicate
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeReplicate {
		return "replicate"
	}
	return "original"
}

// Phase indexes the per-phase statistics (Figure 8).
type Phase int

// The three S³J phases.
const (
	PhasePartition Phase = iota
	PhaseSort
	PhaseJoin
	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhasePartition:
		return "partition"
	case PhaseSort:
		return "sort"
	case PhaseJoin:
		return "join"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Config controls an S³J join.
type Config struct {
	// Disk is the simulated device for level files and sorting. Required.
	Disk *diskio.Disk
	// Memory is the byte budget for the sorting phase workspace. Required.
	Memory int64
	// Mode selects original or replicated partitioning. Default
	// ModeOriginal.
	Mode Mode
	// Algorithm is the internal join for partition pairs. §4.4.1 finds
	// nested loops adequate and the trie sweep counterproductive for
	// S³J's tiny partitions. Default: nested loops.
	Algorithm sweep.Kind
	// Curve selects the locational-code curve; the paper uses Peano
	// because its codes are cheapest to compute (§4.4.2). Default Peano.
	Curve sfc.Curve
	// Levels is the number of grid levels below the root (the deepest
	// level index). Values < 1 select DefaultLevels.
	Levels int
	// BufPages is the per-stream sequential buffer size in pages.
	// Values < 1 select 4.
	BufPages int
	// Trace is the parent span phase spans nest under; nil disables
	// instrumentation.
	Trace *trace.Span
	// Cancel is the join's cancellation checkpoint; nil disables
	// cancellation.
	Cancel *govern.Check
	// Parallel is the worker count for the sorting phase (< 2 = serial):
	// level files sort concurrently on the shared scheduler, and each
	// sort parallelizes its own run formation and merge groups. The
	// partitioning and scan phases are sequential by construction (one
	// writer per level file; one globally ordered scan). Results and
	// level-file contents are identical at every worker count.
	Parallel int
	// Gov, when non-nil, admission-controls the memory the extra
	// parallel sort workers claim beyond the join's own budget.
	Gov *govern.Governor
	// Metrics, when non-nil, publishes live counters (duplicates
	// suppressed, RPM tests, replication copies, level sorts) and feeds
	// the per-pool scheduler series.
	Metrics *metrics.Registry
	// Progress, when non-nil, receives record-weighted phase
	// completions for the percent-complete/ETA estimator: each level
	// sort contributes its record count, the scan its total copies.
	Progress *metrics.Progress
}

// DefaultLevels gives 4^10 ≈ one million cells on the deepest grid,
// small enough partitions for the datasets of the paper.
const DefaultLevels = 10

func (c *Config) levels() int {
	if c.Levels < 1 {
		return DefaultLevels
	}
	if c.Levels > sfc.MaxLevel {
		return sfc.MaxLevel
	}
	return c.Levels
}

func (c *Config) bufPages() int {
	if c.BufPages < 1 {
		return 4
	}
	return c.BufPages
}

// bufPagesFor sizes each stream's I/O buffer when streams files are open
// at once so that the buffers together respect the memory budget; with
// one file per level this matters only for very small budgets.
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

func (c *Config) workers() int {
	if c.Parallel < 2 {
		return 1
	}
	return c.Parallel
}

func (c *Config) algorithm() sweep.Algorithm {
	if c.Algorithm == "" {
		return sweep.New(sweep.NestedLoopsKind)
	}
	return sweep.New(c.Algorithm)
}

// Stats reports what an S³J join did.
type Stats struct {
	Results     int64 // pairs delivered to the caller (duplicate-free)
	RawResults  int64 // pairs produced before the reference-point test
	CopiesR     int64 // level-file records written for R
	CopiesS     int64 // likewise for S
	Tests       int64 // candidate tests of the internal algorithm
	Touches     int64 // status node touches of the internal algorithm
	SortRuns    int   // total initial runs over all level-file sorts
	MergePasses int   // total extra merge passes (0 when files fit in memory)

	// LevelRecordsR/S count records per level for both relations; index
	// is the level. They expose the size-separation behaviour §4.2
	// discusses (in the original mode, level 0 collects every boundary
	// straddler).
	LevelRecordsR []int64
	LevelRecordsS []int64

	// MaxResident is the largest number of bytes of KPEs held in memory
	// at once during the synchronized scan (the active cells on the two
	// root-path stacks plus the arriving partition).
	MaxResident int64

	PhaseIO  [numPhases]diskio.Stats
	PhaseCPU [numPhases]time.Duration

	// FirstResultCPU / FirstResultIO: elapsed CPU and simulated I/O cost
	// units when the first result reached the caller.
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

// ReplicationRate returns records-written / input-size.
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
		return Stats{}, joinerr.Wrap("s3j", "config", fmt.Errorf("Config.Disk is required"))
	}
	if cfg.Memory <= 0 {
		return Stats{}, joinerr.Wrap("s3j", "config", fmt.Errorf("Config.Memory must be positive, got %d", cfg.Memory))
	}
	j := newJoiner(cfg)
	// One sweep covers every exit path, so no level or sort file outlives
	// the join — success, failure or cancellation alike.
	defer j.reg.Sweep()
	err := j.run(R, S, emit)
	j.stats.Tests = j.alg.Tests()
	j.stats.Touches = j.alg.Touches()
	if t := cfg.Trace; t != nil {
		t.Count("s3j.dup.suppressed", j.stats.RawResults-j.stats.Results)
		if cfg.Mode == ModeReplicate {
			t.Count("s3j.rpm.tests", j.stats.RawResults)
		}
		t.Count("s3j.replication.copies", j.stats.CopiesR+j.stats.CopiesS)
		t.Count("s3j.sweep.tests", j.stats.Tests)
		t.Count("s3j.sweep.touches."+j.alg.Name(), j.stats.Touches)
		// Replication copies per level, the distribution behind Figure 8:
		// one counter per level plus a histogram of level fills.
		for l := range j.stats.LevelRecordsR {
			n := j.stats.LevelRecordsR[l]
			if l < len(j.stats.LevelRecordsS) {
				n += j.stats.LevelRecordsS[l]
			}
			if n > 0 {
				t.Count(fmt.Sprintf("s3j.copies.level%02d", l), n)
			}
			t.Observe("s3j.level.fill", float64(n))
		}
	}
	j.publishMetrics()
	return j.stats, err
}

type joiner struct {
	cfg   Config
	alg   sweep.Algorithm
	stats Stats
	reg   *diskio.Registry // every temp file of this join; swept on exit

	start      time.Time
	startUnits float64
	emit       func(geom.Pair)

	// deeper is the arriving cell of the current joinCells call, the one
	// the duplicate test checks reference points against; onPair is
	// pairFound bound once, so no closure is allocated per cell pair.
	deeper stackEntry
	onPair sweep.Emit
}

func newJoiner(cfg Config) *joiner {
	j := &joiner{cfg: cfg, alg: cfg.algorithm(), reg: cfg.Disk.NewRegistry()}
	j.onPair = j.pairFound
	return j
}

func (j *joiner) deliver(p geom.Pair) {
	if j.stats.Results == 0 {
		j.stats.FirstResultCPU = time.Since(j.start)
		j.stats.FirstResultIO = j.cfg.Disk.Stats().CostUnits - j.startUnits
	}
	j.stats.Results++
	j.emit(p)
}

// phaseTimer attributes wall-clock CPU and disk-cost deltas to a phase,
// mirrored as a trace span when tracing is on.
type phaseTimer struct {
	j     *joiner
	phase Phase
	t0    time.Time
	io0   diskio.Stats
	sp    *trace.Span
}

func (j *joiner) begin(p Phase) phaseTimer {
	return phaseTimer{
		j:     j,
		phase: p,
		t0:    time.Now(),
		io0:   j.cfg.Disk.Stats(),
		sp:    j.cfg.Trace.Child(p.String()),
	}
}

func (pt phaseTimer) end() {
	pt.j.stats.PhaseCPU[pt.phase] += time.Since(pt.t0)
	pt.j.stats.PhaseIO[pt.phase].Add(pt.j.cfg.Disk.Stats().Sub(pt.io0))
	pt.sp.End()
}

func (j *joiner) run(R, S []geom.KPE, emit func(geom.Pair)) error {
	j.start = time.Now()
	j.startUnits = j.cfg.Disk.Stats().CostUnits
	j.emit = emit
	levels := j.cfg.levels()

	// Level files are registered at creation; the joiner's sweep removes
	// whatever this run leaves behind, on every exit path.

	// Phase 1: write the level files.
	pt := j.begin(PhasePartition)
	pt.sp.AddRecords(int64(len(R) + len(S)))
	filesR, countsR, err := j.partitionInput(R, levels)
	if err != nil {
		pt.end()
		return joinerr.Wrap("s3j", PhasePartition.String(), err)
	}
	filesS, countsS, err := j.partitionInput(S, levels)
	if err != nil {
		pt.end()
		return joinerr.Wrap("s3j", PhasePartition.String(), err)
	}
	j.stats.LevelRecordsR, j.stats.LevelRecordsS = countsR, countsS
	for _, n := range countsR {
		j.stats.CopiesR += n
	}
	for _, n := range countsS {
		j.stats.CopiesS += n
	}
	pt.sp.SetAttr("copies", j.stats.CopiesR+j.stats.CopiesS)
	pt.end()

	// Declare the planned cost in record weights: every copy is sorted
	// once (levels ≥ 1) and scanned once (all levels), so progress
	// advances by each sort unit's records and by the final scan.
	scanWork := float64(j.stats.CopiesR + j.stats.CopiesS)
	sortWork := scanWork - float64(countsR[0]+countsS[0])
	j.cfg.Progress.SetTotal(sortWork + scanWork)

	// Phase 2: sort every level file by locational code. Level 0 has a
	// single cell (all codes zero) and needs no sort — the optimization
	// §4.4.2 enables by never computing codes for the lowest level.
	// Each (relation, level) sort is an independent unit: it reads and
	// replaces one file slot nobody else touches, so the units run on the
	// shared scheduler. Per-unit sort stats land in unit-indexed slots
	// and are summed afterwards, keeping the accumulation race-free.
	pt = j.begin(PhaseSort)
	type sortUnit struct {
		files []*diskio.File
		l     int
	}
	units := make([]sortUnit, 0, 2*levels)
	for l := 1; l <= levels; l++ {
		units = append(units, sortUnit{filesR, l}, sortUnit{filesS, l})
	}
	unitStats := make([]extsort.Stats, len(units))
	err = sched.Run(len(units), sched.Options{
		Workers: j.cfg.workers(),
		Name:    "sort-level",
		Span:    pt.sp,
		Cancel:  j.cfg.Cancel,
		Gov:     j.cfg.Gov,
		UnitMem: j.cfg.Memory,
		Metrics: j.cfg.Metrics,
	}, func(w, i int) error {
		u := units[i]
		records := recfile.NumKPEs(u.files[u.l])
		sorted, st, serr := j.sortLevel(u.files[u.l], pt.sp)
		if serr != nil {
			return serr
		}
		u.files[u.l] = sorted
		unitStats[i] = st
		j.levelSortDone()
		j.cfg.Progress.Add(float64(records))
		return nil
	})
	if err != nil {
		pt.end()
		return joinerr.Wrap("s3j", PhaseSort.String(), err)
	}
	for _, st := range unitStats {
		j.stats.SortRuns += st.Runs
		j.stats.MergePasses += st.MergePass
	}
	pt.end()

	// Phase 3: synchronized scan.
	pt = j.begin(PhaseJoin)
	pt.sp.AddRecords(j.stats.CopiesR + j.stats.CopiesS)
	err = j.scan(filesR, filesS)
	pt.end()
	if err == nil {
		j.cfg.Progress.Add(scanWork)
	}
	return joinerr.Wrap("s3j", PhaseJoin.String(), err)
}

// partitionInput writes one level file per grid level for relation ks and
// returns the files plus per-level record counts.
func (j *joiner) partitionInput(ks []geom.KPE, levels int) ([]*diskio.File, []int64, error) {
	files := make([]*diskio.File, levels+1)
	writers := make([]*levWriter, levels+1)
	counts := make([]int64, levels+1)
	buf := j.cfg.bufPagesFor(levels + 1)
	for l := range files {
		files[l] = j.reg.Create()
		writers[l] = newLevWriter(files[l], buf)
	}
	var cells [][2]uint32
	chk := j.cfg.Cancel.Stride()
	for i := range ks {
		if err := chk.Point(); err != nil {
			return files, counts, err
		}
		k := ks[i]
		switch j.cfg.Mode {
		case ModeOriginal:
			l, ix, iy := sfc.ContainmentLevel(k.Rect, levels)
			code := uint64(0)
			if l > 0 { // level 0 needs no code (§4.4.2)
				code = j.cfg.Curve.Code(ix, iy, l)
			}
			if err := writers[l].write(code, k); err != nil {
				return files, counts, err
			}
			counts[l]++
		case ModeReplicate:
			l := sfc.SizeLevel(k.Rect, levels)
			cells = sfc.OverlapCells(k.Rect, l, cells[:0])
			for _, c := range cells {
				code := uint64(0)
				if l > 0 {
					code = j.cfg.Curve.Code(c[0], c[1], l)
				}
				if err := writers[l].write(code, k); err != nil {
					return files, counts, err
				}
				counts[l]++
			}
		}
	}
	for _, w := range writers {
		if err := w.flush(); err != nil {
			return files, counts, err
		}
	}
	return files, counts, nil
}

// sortLevel sorts one level file by locational code, replacing it. The
// sort's spans nest under sp, the sort-phase span. It is safe to call
// from concurrent workers: it touches only its own file (plus the
// mutex-protected registry) and reports stats by return value.
func (j *joiner) sortLevel(f *diskio.File, sp *trace.Span) (*diskio.File, extsort.Stats, error) {
	if numLevRecs(f) == 0 {
		return f, extsort.Stats{}, nil
	}
	sorted, st, err := extsort.Sort(f, extsort.Config{
		Disk:       j.cfg.Disk,
		RecordSize: levRecSize,
		Memory:     j.cfg.Memory,
		BufPages:   j.cfg.bufPages(),
		Parallel:   j.cfg.Parallel,
		Gov:        j.cfg.Gov,
		Trace:      sp,
		Reg:        j.reg,
		Cancel:     j.cfg.Cancel,
		Less: func(a, b []byte) bool {
			return decodeLevCode(a) < decodeLevCode(b)
		},
	})
	if err != nil {
		return f, st, err
	}
	j.reg.Remove(f)
	return sorted, st, nil
}

// stackEntry is one active cell on a relation's root-path stack during
// the synchronized scan: the cell's code interval at maximum depth, its
// level and grid coordinates, and its resident rectangles.
type stackEntry struct {
	lo, hi uint64
	level  int
	ix, iy uint32
	items  []geom.KPE
}

// scan performs the heap-driven synchronized scan of the sorted level
// files (§4.4.3): a heap over one cursor per non-empty (relation, level)
// file yields the cells of both relations in space-filling-curve order;
// two stacks hold the cells of the current root path per relation; each
// arriving cell is joined against the other relation's stack.
func (j *joiner) scan(filesR, filesS []*diskio.File) error {
	h := &cursorHeap{}
	buf := j.cfg.bufPagesFor(len(filesR) + len(filesS))
	// Level files reporting zero records are left out of the heap, but
	// the count is length-derived: a file torn below one frame header
	// masquerades as empty, so verify each skipped file really is an
	// intact empty stream instead of silently dropping its level.
	for l, f := range filesR {
		if numLevRecs(f) > 0 {
			h.items = append(h.items, newGroupCursor(f, buf, l, 0))
		} else if err := recfile.VerifyEmpty(f, levRecSize, buf); err != nil {
			return err
		}
	}
	for l, f := range filesS {
		if numLevRecs(f) > 0 {
			h.items = append(h.items, newGroupCursor(f, buf, l, 1))
		} else if err := recfile.VerifyEmpty(f, levRecSize, buf); err != nil {
			return err
		}
	}
	// Prime lookaheads, dropping exhausted cursors (empty files were
	// already skipped, so this is just defensive).
	live := h.items[:0]
	for _, c := range h.items {
		ok, err := c.fillPeek()
		if err != nil {
			return err
		}
		if ok {
			live = append(live, c)
		}
	}
	h.items = live
	heap.Init(h)

	var stacks [2][]stackEntry
	var resident int64
	// Group buffers of retired cells, reused for arriving ones: the
	// scan holds at most the two root paths, so it needs only as many
	// buffers as the stacks grow deep.
	var free [][]geom.KPE
	for h.Len() > 0 {
		if err := j.cfg.Cancel.Point(); err != nil {
			return err
		}
		c := h.items[0]
		var buf []geom.KPE
		if n := len(free); n > 0 {
			buf, free = free[n-1], free[:n-1]
		}
		code, items, _, err := c.nextGroup(buf)
		if err != nil {
			return err
		}
		ok, err := c.fillPeek()
		if err != nil {
			return err
		}
		if ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
		lo, hi := sfc.CodeInterval(code, c.level)
		var ix, iy uint32
		if c.level > 0 {
			ix, iy = j.decodeCell(code, c.level)
		}

		// Retire stack cells that ended before this one starts.
		for s := 0; s < 2; s++ {
			st := stacks[s]
			for len(st) > 0 && st[len(st)-1].hi <= lo {
				top := st[len(st)-1].items
				resident -= int64(len(top)) * geom.KPESize
				free = append(free, top[:0])
				st = st[:len(st)-1]
			}
			stacks[s] = st
		}

		entry := stackEntry{lo: lo, hi: hi, level: c.level, ix: ix, iy: iy, items: items}

		// Join the arriving cell against every active cell of the other
		// relation — exactly the node-vs-root-path pairs of §4.1. The
		// arriving cell is always the deeper (or equal) one, so the
		// modified Reference Point Method tests against it.
		other := 1 - c.rel
		for i := range stacks[other] {
			anc := &stacks[other][i]
			if c.rel == 0 {
				j.joinCells(entry.items, anc.items, entry)
			} else {
				j.joinCells(anc.items, entry.items, entry)
			}
		}

		stacks[c.rel] = append(stacks[c.rel], entry)
		resident += int64(len(items)) * geom.KPESize
		if resident > j.stats.MaxResident {
			j.stats.MaxResident = resident
		}
	}
	return nil
}

// decodeCell recovers grid coordinates from a locational code.
func (j *joiner) decodeCell(code uint64, level int) (uint32, uint32) {
	if j.cfg.Curve == sfc.Hilbert {
		return sfc.HilbertXY(code, level)
	}
	return sfc.ZDecode(code, level)
}

// joinCells joins the rectangles of one R-cell and one S-cell. deeper is
// the arriving (deeper or equal) cell used by the duplicate test.
func (j *joiner) joinCells(rs, ss []geom.KPE, deeper stackEntry) {
	j.deeper = deeper
	j.alg.Join(rs, ss, j.onPair)
}

// pairFound receives each intersecting pair of joinCells and delivers it
// unless the modified Reference Point Method assigns it to another cell.
func (j *joiner) pairFound(r, s geom.KPE) {
	j.stats.RawResults++
	if j.cfg.Mode == ModeReplicate {
		x := geom.RefPoint(r.Rect, s.Rect)
		cx, cy := sfc.CellAt(x, j.deeper.level)
		if cx != j.deeper.ix || cy != j.deeper.iy {
			return // duplicate: reported by the cell owning x
		}
	}
	j.deliver(geom.Pair{R: r.ID, S: s.ID})
}

// cursorHeap orders group cursors by the start of their next cell's code
// interval, ancestors before descendants (shallower level first), R
// before S — the order the synchronized pre-order traversal requires.
type cursorHeap struct {
	items []*groupCursor
}

func (h *cursorHeap) Len() int { return len(h.items) }

func (h *cursorHeap) Less(a, b int) bool {
	// The interval start is cached on the cursor by fillPeek (computed
	// once per lookahead record), so each heap comparison is three
	// integer compares instead of two bit-interleaving expansions.
	ca, cb := h.items[a], h.items[b]
	if ca.pkLo != cb.pkLo {
		return ca.pkLo < cb.pkLo
	}
	if ca.level != cb.level {
		return ca.level < cb.level
	}
	return ca.rel < cb.rel
}

func (h *cursorHeap) Swap(a, b int)      { h.items[a], h.items[b] = h.items[b], h.items[a] }
func (h *cursorHeap) Push(x interface{}) { h.items = append(h.items, x.(*groupCursor)) }
func (h *cursorHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
