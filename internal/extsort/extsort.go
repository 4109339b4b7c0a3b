// Package extsort implements external merge sort over files of fixed-size
// records stored on the simulated disk of package diskio, in the
// checksummed frame format of package recfile.
//
// Two phases use it: the sorting phase of S³J (level files ordered by
// locational code, §4.2 of the paper) and the original duplicate-removal
// phase of PBSM (result pairs ordered by ID, §3.1). Run formation reads
// the input once and writes sorted runs once; when more than one run is
// produced, multiway merge passes follow, each reading and writing the
// data once — exactly the I/O behaviour §5.1 of the paper accounts for.
//
// Both stages decompose into independent units — run-formation chunks
// cover disjoint record ranges of the input, and the merge groups of one
// pass share no runs — so both run on the shared worker pool of package
// sched when Config.Parallel asks for it. Chunk boundaries and group
// assignments are identical in serial and parallel mode (each unit
// writes its own output file), so parallelism changes wall-clock time
// only: the same runs with the same contents are formed and merged
// either way, and Stats.Runs/MergePass/Comparisons are reproducible.
//
// All I/O errors — injected transient faults that survive the recfile
// retry, torn frames, checksum mismatches — abort the sort and are
// returned to the caller; a sort never silently drops or reorders
// records.
package extsort

import (
	"container/heap"
	"sort"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/trace"
)

// Less compares two records given as raw byte slices of the configured
// record size.
type Less func(a, b []byte) bool

// Config controls a sort.
type Config struct {
	Disk       *diskio.Disk
	RecordSize int   // bytes per record
	Memory     int64 // in-memory workspace budget in bytes
	BufPages   int   // pages per sequential I/O buffer (default 4)
	Less       Less
	// Parallel is the worker count for run formation and the merge
	// groups of each pass (< 2 = sequential). Parallel workers hold one
	// memory-budget-sized working set EACH; gate the overshoot with Gov
	// when several sorts share a machine.
	Parallel int
	// Gov, when non-nil, admission-controls the extra parallel worker
	// slots: each claims its working set via TryAcquire and silently
	// degrades to fewer workers when the machine is over-committed.
	Gov *govern.Governor
	// Trace is the parent span the sort nests its run-formation and
	// merge-pass spans under; nil disables instrumentation.
	Trace *trace.Span
	// Reg, when non-nil, registers the sort's intermediate files (run
	// and merge-output files) — including the returned sorted file — so
	// the owning join's sweep covers them even if it aborts after the
	// sort returns. Nil gets a private registry with the pre-registry
	// behaviour: eager removal on error, returned file unregistered.
	Reg *diskio.Registry
	// Cancel is the owning join's cancellation checkpoint; nil disables
	// cancellation. Run formation and merge passes poll it per record.
	Cancel *govern.Check
}

func (c *Config) bufPages() int {
	if c.BufPages < 1 {
		return 4
	}
	return c.BufPages
}

func (c *Config) workers() int {
	if c.Parallel < 2 {
		return 1
	}
	return c.Parallel
}

// Stats reports what a Sort did.
type Stats struct {
	Records     int64 // records sorted
	Runs        int   // initial runs formed
	MergePass   int   // number of merge passes performed (0 if one run)
	Comparisons int64
}

// runRange is one sorted run: its file and its record count. Every run
// owns a whole file, so merge groups and run-formation chunks touch
// disjoint files and can run concurrently.
type runRange struct {
	f    *diskio.File
	recs int64
}

// removeRuns removes every run file of rs.
func removeRuns(reg *diskio.Registry, rs []runRange) {
	for _, r := range rs {
		if r.f != nil {
			reg.Remove(r.f)
		}
	}
}

// Sort sorts the records of in and returns a new file with the sorted
// records plus statistics. The input file is left untouched; the caller
// may Remove it. An empty input yields an empty output file. On error
// the returned file is nil and any partial output has been removed.
func Sort(in *diskio.File, cfg Config) (*diskio.File, Stats, error) {
	var st Stats
	rs := cfg.RecordSize
	st.Records = recfile.NumRecs(in, rs)

	sp := cfg.Trace.Child("extsort")
	defer sp.End()
	sp.AddRecords(st.Records)

	reg := cfg.Reg
	if reg == nil {
		reg = cfg.Disk.NewRegistry()
	}

	runs, err := formRuns(in, cfg, reg, sp, &st)
	if err != nil {
		removeRuns(reg, runs)
		return nil, st, err
	}
	st.Runs = len(runs)
	sp.SetAttr("runs", int64(st.Runs))
	if len(runs) == 0 {
		// Empty input: return an empty but finalized stream (exactly one
		// end-of-stream frame), which readers verify as intact.
		f := reg.Create()
		w := recfile.NewRecWriter(f, rs, cfg.bufPages())
		if ferr := w.Flush(); ferr != nil {
			reg.Remove(f)
			return nil, st, ferr
		}
		return f, st, nil
	}

	for len(runs) > 1 {
		st.MergePass++
		next, merr := mergePass(runs, cfg, reg, sp, &st)
		if merr != nil {
			removeRuns(reg, runs)
			removeRuns(reg, next)
			return nil, st, merr
		}
		removeRuns(reg, runs)
		runs = next
	}
	return runs[0].f, st, nil
}

// formRuns sorts memory-sized chunks of the input into one run file per
// chunk. Chunks cover the fixed record ranges [i·maxRecs, (i+1)·maxRecs)
// regardless of worker count, so the runs a parallel formation produces
// are byte-identical to the serial ones.
func formRuns(in *diskio.File, cfg Config, reg *diskio.Registry, sp *trace.Span, st *Stats) ([]runRange, error) {
	ph := sp.Child("run-formation")
	defer ph.End()
	rs := cfg.RecordSize
	maxRecs := cfg.Memory / int64(rs)
	if maxRecs < 2 {
		maxRecs = 2
	}
	total := st.Records
	if total == 0 {
		return nil, nil
	}
	n := int((total + maxRecs - 1) / maxRecs)
	runs := make([]runRange, n)
	for i := range runs {
		lo := int64(i) * maxRecs
		hi := lo + maxRecs
		if hi > total {
			hi = total
		}
		runs[i] = runRange{f: reg.Create(), recs: hi - lo}
	}
	comps := make([]int64, n)
	// One chunk buffer per worker slot, sized for the largest chunk and
	// reused for every run the slot forms.
	chunks := make([][]byte, cfg.workers())
	chunkBytes := min(maxRecs, total) * int64(rs)
	err := sched.Run(n, sched.Options{
		Workers: cfg.workers(),
		Name:    "sort-chunk",
		Span:    ph,
		Cancel:  cfg.Cancel,
		Gov:     cfg.Gov,
		UnitMem: maxRecs * int64(rs),
	}, func(w, i int) error {
		if chunks[w] == nil {
			chunks[w] = make([]byte, 0, chunkBytes)
		}
		c, uerr := formOneRun(in, runs[i], int64(i)*maxRecs, cfg, chunks[w])
		comps[i] = c
		return uerr
	})
	for _, c := range comps {
		st.Comparisons += c
	}
	return runs, err
}

// formOneRun reads the chunk's record range directly into the in-memory
// buffer chunk (one copy: frame payload to chunk tail), sorts it in
// place, and writes the run file sequentially from the sorted buffer.
// chunk's capacity must hold the run; its contents are overwritten.
func formOneRun(in *diskio.File, run runRange, lo int64, cfg Config, chunk []byte) (int64, error) {
	rs := cfg.RecordSize
	r := recfile.NewRecRangeReader(in, rs, cfg.bufPages(), lo, lo+run.recs)
	chunk = chunk[:0]
	chk := cfg.Cancel.Stride()
	for int64(len(chunk)/rs) < run.recs {
		if err := chk.Point(); err != nil {
			return 0, err
		}
		k := len(chunk)
		chunk = chunk[:k+rs]
		ok, err := r.Next(chunk[k:])
		if err != nil {
			return 0, err
		}
		if !ok {
			// The range reader promises exactly run.recs records and
			// reports torn tails itself; a clean end here means the
			// length-derived count and the stream disagree.
			return 0, &recfile.CorruptError{File: in.Name(), Detail: "record range shorter than the length-derived count"}
		}
	}
	var comps int64
	sort.Sort(&chunkSorter{buf: chunk, rs: rs, tmp: make([]byte, rs), less: cfg.Less, comps: &comps})
	w := recfile.NewRecWriter(run.f, rs, cfg.bufPages())
	for k := 0; k < len(chunk); k += rs {
		if err := chk.Point(); err != nil {
			return comps, err
		}
		if err := w.Write(chunk[k : k+rs]); err != nil {
			return comps, err
		}
	}
	return comps, w.Flush()
}

// chunkSorter sorts a chunk of fixed-size records in place (swap via one
// record-sized scratch buffer), so the run can be written with one
// sequential pass over the buffer instead of through an index
// permutation in random memory order.
type chunkSorter struct {
	buf   []byte
	rs    int
	tmp   []byte
	less  Less
	comps *int64
}

func (s *chunkSorter) Len() int { return len(s.buf) / s.rs }

func (s *chunkSorter) Less(i, j int) bool {
	*s.comps++
	return s.less(s.buf[i*s.rs:(i+1)*s.rs], s.buf[j*s.rs:(j+1)*s.rs])
}

func (s *chunkSorter) Swap(i, j int) {
	a := s.buf[i*s.rs : (i+1)*s.rs]
	b := s.buf[j*s.rs : (j+1)*s.rs]
	copy(s.tmp, a)
	copy(a, b)
	copy(b, s.tmp)
}

// mergePass merges groups of up to fanin runs, each group into its own
// output file. The fan-in is limited by the memory budget — one input
// buffer per run plus one output buffer per group — and group boundaries
// depend only on the run list, never on the worker count.
func mergePass(runs []runRange, cfg Config, reg *diskio.Registry, sp *trace.Span, st *Stats) ([]runRange, error) {
	ph := sp.Child("merge-pass")
	defer ph.End()
	ph.SetAttr("pass", int64(st.MergePass))
	ph.SetAttr("runs", int64(len(runs)))

	bufBytes := int64(cfg.bufPages() * cfg.Disk.PageSize())
	fanin := int(cfg.Memory/bufBytes) - 1
	if fanin < 2 {
		fanin = 2
	}
	groups := (len(runs) + fanin - 1) / fanin
	next := make([]runRange, groups)
	for gi := range next {
		next[gi].f = reg.Create()
	}
	comps := make([]int64, groups)
	err := sched.Run(groups, sched.Options{
		Workers: cfg.workers(),
		Name:    "merge-group",
		Span:    ph,
		Cancel:  cfg.Cancel,
		Gov:     cfg.Gov,
		UnitMem: int64(fanin+1) * bufBytes,
	}, func(w, gi int) error {
		lo := gi * fanin
		hi := lo + fanin
		if hi > len(runs) {
			hi = len(runs)
		}
		n, c, uerr := mergeRuns(next[gi].f, runs[lo:hi], cfg)
		next[gi].recs = n
		comps[gi] = c
		return uerr
	})
	for _, c := range comps {
		st.Comparisons += c
	}
	return next, err
}

// mergeRuns merges the given runs into out and returns the number of
// records written plus the comparisons spent.
func mergeRuns(out *diskio.File, runs []runRange, cfg Config) (int64, int64, error) {
	rs := cfg.RecordSize
	var comps int64
	h := &mergeHeap{less: cfg.Less, comps: &comps}
	for _, rr := range runs {
		c := &cursor{
			r:   recfile.NewRecRangeReader(rr.f, rs, cfg.bufPages(), 0, rr.recs),
			buf: make([]byte, rs),
		}
		ok, err := c.advance()
		if err != nil {
			return 0, comps, err
		}
		if ok {
			h.items = append(h.items, c)
		}
	}
	heap.Init(h)
	w := recfile.NewRecWriter(out, rs, cfg.bufPages())
	var n int64
	chk := cfg.Cancel.Stride()
	for h.Len() > 0 {
		if err := chk.Point(); err != nil {
			return n, comps, err
		}
		c := h.items[0]
		if err := w.Write(c.buf); err != nil {
			return n, comps, err
		}
		n++
		ok, err := c.advance()
		if err != nil {
			return n, comps, err
		}
		if ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return n, comps, w.Flush()
}

type cursor struct {
	r   *recfile.RecReader
	buf []byte
}

func (c *cursor) advance() (bool, error) { return c.r.Next(c.buf) }

type mergeHeap struct {
	items []*cursor
	less  Less
	comps *int64
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	*h.comps++
	return h.less(h.items[i].buf, h.items[j].buf)
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(*cursor)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
