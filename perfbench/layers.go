package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sfc"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// crossReps is how many joins the cross-method probe runs.
const crossReps = 3

// layers is the traced run. It alternates untraced joins with joins that
// carry a trace.Recorder through core.Config.Trace for the run's length,
// then runs the other join method over the same inputs and budget (so
// that both methods' phase figures exist on every workload), then times
// the benchmark's own calls into each layer's public functions under
// spans of a probe recorder. Every join is checked against the oracle.
// All spans stay in memory until the run ends, when the last traced
// join, the last cross-method join and the probes are written to
// traceDir as JSON lines.
func (r *runner) layers(seconds time.Duration, ms *metricSet, traceDir string) error {
	if _, err := r.setup(); err != nil {
		return err
	}
	ser := series{}
	own := r.w.config(r.R, r.S, r.w.method)
	var plain, traced []float64
	var ownRec *trace.Recorder
	var last outcome
	for i, end := 0, time.Now().Add(seconds); i < 2 || time.Now().Before(end); i++ {
		// Alternate which side of each pair runs first.
		for _, on := range [2]bool{i%2 == 0, i%2 != 0} {
			cfg := own
			if on {
				cfg.Trace = trace.New()
			}
			o := r.join(cfg)
			if o.err != nil {
				continue
			}
			if !on {
				plain = append(plain, o.wall.Seconds())
				continue
			}
			traced = append(traced, o.wall.Seconds())
			ser.method(o.res, len(r.R)+len(r.S))
			ser.selfTimes(cfg.Trace, string(r.w.method))
			ownRec, last = cfg.Trace, o
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return errors.New("no traced or untraced join succeeded")
	}
	ser.add("trace.overhead_frac", median(traced)/median(plain)-1)
	ser.add("sweep.tests_per_result", float64(tests(last.res))/float64(last.res.Results))
	dio := last.res.IO
	ser.add("diskio.cost_units", dio.CostUnits)
	ser.add("diskio.read_requests", float64(dio.ReadRequests))
	ser.add("diskio.write_requests", float64(dio.WriteRequests))
	ser.add("diskio.pages_read", float64(dio.PagesRead))
	ser.add("diskio.pages_written", float64(dio.PagesWritten))

	other := core.S3J
	if r.w.method == core.S3J {
		other = core.PBSM
	}
	var crossRec *trace.Recorder
	for i := 0; i < crossReps; i++ {
		cfg := r.w.config(r.R, r.S, other)
		cfg.Trace = trace.New()
		o := r.join(cfg)
		if o.err != nil {
			return fmt.Errorf("%s probe join: %w", other, o.err)
		}
		ser.method(o.res, len(r.R)+len(r.S))
		ser.selfTimes(cfg.Trace, string(other))
		crossRec = cfg.Trace
	}

	probes := trace.New()
	if err := r.probe(probes, own, partitions(last.res), ser); err != nil {
		return err
	}
	for name, v := range ser {
		ms.set(name, median(v))
	}
	return writeTraces(traceDir, fmt.Sprintf("%s-seed%d", r.w.name, r.seed), map[string]*trace.Recorder{
		"join": ownRec, "cross": crossRec, "probes": probes,
	})
}

// series collects repeated observations of per-layer metrics; each is
// reported as its median.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// method records the phase statistics of one PBSM or S³J join over n
// input records.
func (s series) method(res core.Result, n int) {
	if st := res.PBSMStats; st != nil {
		cpu := st.TotalCPU().Seconds()
		s.add("pbsm.partition_cpu_frac", st.PhaseCPU[pbsm.PhasePartition].Seconds()/cpu)
		s.add("pbsm.join_cpu_s", st.PhaseCPU[pbsm.PhaseJoin].Seconds())
		s.add("pbsm.partitions", float64(st.P))
		s.add("pbsm.replication", st.ReplicationRate(n, 0))
		s.add("pbsm.repartitions", float64(st.Repartitions))
		s.add("pbsm.raw_per_result", float64(st.RawResults)/float64(st.Results))
	}
	if st := res.S3JStats; st != nil {
		s.add("s3j.partition_cpu_s", st.PhaseCPU[s3j.PhasePartition].Seconds())
		s.add("s3j.sort_cpu_s", st.PhaseCPU[s3j.PhaseSort].Seconds())
		s.add("s3j.join_cpu_s", st.PhaseCPU[s3j.PhaseJoin].Seconds())
		s.add("s3j.sort_runs", float64(st.SortRuns))
		s.add("s3j.merge_passes", float64(st.MergePasses))
		s.add("s3j.max_resident_bytes", float64(st.MaxResident))
	}
}

// traceSpans are the span names whose self time is reported, by method,
// with the metric-name segment each one gets.
var traceSpans = map[string]map[string]string{
	"pbsm": {"join:pbsm": "root", "join": "join"},
	"s3j": {"join:s3j": "root", "partition": "partition", "sort-level": "sort-level",
		"extsort": "extsort", "run-formation": "run-formation", "join": "join"},
}

// selfTimes adds the self time of every reported span name of one traced
// join of the given method. For PBSM it also adds the repartition spans'
// share of all self time: with parallel workers PBSM charges
// repartitioning to its join phase in Stats.PhaseCPU, so the spans are
// the only place that time shows.
func (s series) selfTimes(rec *trace.Recorder, method string) {
	sums := map[string]float64{}
	var all, repart float64
	for name, d := range selfTimes(rec.Spans()) {
		if seg, ok := traceSpans[method][name]; ok {
			sums[seg] += d.Seconds()
		}
		if name == "repartition" {
			repart += d.Seconds()
		}
		all += d.Seconds()
	}
	for _, seg := range traceSpans[method] {
		s.add("trace."+method+"."+seg+".self_s", sums[seg])
	}
	if method == string(core.PBSM) {
		s.add("pbsm.repartition_frac", repart/all)
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children.
func selfTimes(spans []trace.SpanData) map[string]time.Duration {
	kids := map[int64][][2]time.Duration{}
	for _, sp := range spans {
		if !sp.Instant && sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], [2]time.Duration{sp.Start, sp.End()})
		}
	}
	out := map[string]time.Duration{}
	for _, sp := range spans {
		if sp.Instant {
			continue
		}
		out[sp.Name] += sp.Dur - covered(sp.Start, sp.End(), kids[sp.ID])
	}
	return out
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var c time.Duration
	cursor := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cursor), min(iv[1], hi)
		if b > a {
			c += b - a
			cursor = b
		}
	}
	return c
}

func tests(res core.Result) int64 {
	if res.PBSMStats != nil {
		return res.PBSMStats.Tests
	}
	return res.S3JStats.Tests
}

// partitions is how many partitions the workload's join cut the input
// into; S³J reports none, its partitions being the grid cells.
func partitions(res core.Result) int {
	if res.PBSMStats != nil {
		return res.PBSMStats.P
	}
	return 0
}

func writeTraces(dir, stem string, recs map[string]*trace.Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	for part, rec := range recs {
		f, err := os.Create(filepath.Join(dir, stem+"-"+part+".jsonl"))
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		werr := rec.WriteJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write trace %s: %w", f.Name(), werr)
		}
	}
	return nil
}

// probeMin is the least time each layer probe measures; a probe repeats
// its call until it has run this long and at least three times.
const probeMin = 200 * time.Millisecond

// prober times the benchmark's own calls into one layer after another,
// each under a span of its recorder, and keeps the first error.
type prober struct {
	rec *trace.Recorder
	ser series
	err error
}

// run repeats fn under a "probe:<metric>" span until probeMin has passed
// and fn has run three times, adding each of fn's own timings to metric.
// fn may add further metrics of the same call to p.ser.
func (p *prober) run(metric string, fn func(sp *trace.Span) (float64, error)) {
	for t0, n := time.Now(), 0; p.err == nil && (n < 3 || time.Since(t0) < probeMin); n++ {
		sp := p.rec.Begin("probe:" + metric)
		v, err := fn(sp)
		sp.End()
		if err != nil {
			p.err = fmt.Errorf("%s probe: %w", metric, err)
			return
		}
		p.ser.add(metric, v)
	}
}

// probe times the benchmark's own calls into each layer's public
// functions on the workload's inputs and checks what each call returns.
func (r *runner) probe(rec *trace.Recorder, cfg core.Config, parts int, ser series) error {
	p := &prober{rec: rec, ser: ser}
	ks := append(append([]geom.KPE(nil), r.R...), r.S...)
	n := float64(len(ks))
	buf := make([]byte, len(ks)*geom.KPESize)

	p.run("geom.kpe_encode_ns", func(*trace.Span) (float64, error) {
		t0 := time.Now()
		for i, k := range ks {
			geom.EncodeKPE(buf[i*geom.KPESize:], k)
		}
		return float64(time.Since(t0).Nanoseconds()) / n, nil
	})
	p.run("geom.kpe_decode_ns", func(*trace.Span) (float64, error) {
		bad := 0
		t0 := time.Now()
		for i, k := range ks {
			if geom.DecodeKPE(buf[i*geom.KPESize:]) != k {
				bad++
			}
		}
		d := time.Since(t0)
		if bad > 0 {
			return 0, fmt.Errorf("%d records decode differently", bad)
		}
		return float64(d.Nanoseconds()) / n, nil
	})
	p.run("recfile.write_ns_per_rec", func(*trace.Span) (float64, error) {
		w, rd, err := recfileRoundTrip(ks)
		ser.add("recfile.read_ns_per_rec", rd/n)
		return w / n, err
	})
	p.run("extsort.sort_s", func(sp *trace.Span) (float64, error) {
		d, st, err := sortProbe(ks, cfg.Memory, sp)
		ser.add("extsort.runs", float64(st.Runs))
		ser.add("extsort.merge_passes", float64(st.MergePass))
		ser.add("extsort.comparisons", float64(st.Comparisons))
		return d.Seconds(), err
	})

	rs, ss := strip(r.R, r.S, sampleSize(r.w.method, len(ks), parts))
	kind := sweep.ListKind
	if r.w.method == core.S3J {
		kind = sweep.NestedLoopsKind
	}
	want := oracle(rs, ss)
	p.run("sweep.ns_per_test", func(*trace.Span) (float64, error) {
		a := sweep.New(kind)
		var got answer
		t0 := time.Now()
		a.Join(rs, ss, func(r, s geom.KPE) { got.add(geom.Pair{R: r.ID, S: s.ID}) })
		d := time.Since(t0)
		if err := check(got, want); err != nil {
			return 0, err
		}
		return float64(d.Nanoseconds()) / float64(a.Tests()), nil
	})
	p.run("sfc.level_ns", func(*trace.Span) (float64, error) {
		var cells [][2]uint32
		over := 0
		t0 := time.Now()
		for _, k := range ks {
			cells = sfc.OverlapCells(k.Rect, sfc.SizeLevel(k.Rect, s3j.DefaultLevels), cells[:0])
			if len(cells) > 4 {
				over++
			}
		}
		d := time.Since(t0)
		if over > 0 {
			return 0, fmt.Errorf("%d rectangles overlap more than 4 cells at their size level", over)
		}
		return float64(d.Nanoseconds()) / n, nil
	})
	p.run("sched.collector_ns_per_pair", func(sp *trace.Span) (float64, error) {
		d, err := collectorProbe(r.want.Pairs, sp)
		return float64(d.Nanoseconds()) / float64(r.want.Pairs), err
	})
	return p.err
}

// recfileRoundTrip writes ks through a KPEWriter onto a fresh disk and
// reads them back through a KPEReader, returning both times in ns.
func recfileRoundTrip(ks []geom.KPE) (write, read float64, err error) {
	d := diskio.NewDisk(0, 0, 0)
	f := d.Create("probe")
	t0 := time.Now()
	w := recfile.NewKPEWriter(f, 4)
	for _, k := range ks {
		if err := w.Write(k); err != nil {
			return 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	write = float64(time.Since(t0).Nanoseconds())
	t0 = time.Now()
	rd := recfile.NewKPEReader(f, 4)
	i := 0
	for ; ; i++ {
		k, ok, err := rd.Next()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		if i >= len(ks) || k != ks[i] {
			return 0, 0, fmt.Errorf("record %d read back differently", i)
		}
	}
	read = float64(time.Since(t0).Nanoseconds())
	if i != len(ks) {
		return 0, 0, fmt.Errorf("read %d of %d records", i, len(ks))
	}
	return write, read, nil
}

// sortProbe sorts ks by left edge with extsort.Sort at the given memory
// budget and checks the output order.
func sortProbe(ks []geom.KPE, memory int64, sp *trace.Span) (time.Duration, extsort.Stats, error) {
	d := diskio.NewDisk(0, 0, 0)
	in := d.Create("probe-in")
	w := recfile.NewKPEWriter(in, 4)
	for _, k := range ks {
		if err := w.Write(k); err != nil {
			return 0, extsort.Stats{}, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, extsort.Stats{}, err
	}
	xl := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8:])) }
	t0 := time.Now()
	out, st, err := extsort.Sort(in, extsort.Config{
		Disk: d, RecordSize: geom.KPESize, Memory: memory, Parallel: 2, Trace: sp,
		Less: func(a, b []byte) bool { return xl(a) < xl(b) },
	})
	el := time.Since(t0)
	if err != nil {
		return 0, st, err
	}
	sorted, err := recfile.ReadAllKPEs(out, 4)
	if err != nil {
		return 0, st, err
	}
	if len(sorted) != len(ks) || !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i].Rect.XL < sorted[j].Rect.XL }) {
		return 0, st, fmt.Errorf("sorted %d of %d records, or out of order", len(sorted), len(ks))
	}
	return el, st, nil
}

// sampleSize is the record count of the sweep probe's sample: one PBSM
// partition of the workload's join, or, for the nested loops S³J joins
// its cells with, a sample small enough for a quadratic join.
func sampleSize(m core.Method, n, parts int) int {
	if m == core.S3J {
		return 4096
	}
	return n / max(parts, 1)
}

// strip returns the records of R and S whose left edges fall into the
// narrowest x-range around the median that holds about size records of
// both inputs together: a sample with the inputs' local density.
func strip(R, S []geom.KPE, size int) (rs, ss []geom.KPE) {
	xs := make([]float64, 0, len(R)+len(S))
	for _, k := range R {
		xs = append(xs, k.Rect.XL)
	}
	for _, k := range S {
		xs = append(xs, k.Rect.XL)
	}
	sort.Float64s(xs)
	lo := max(len(xs)/2-size/2, 0)
	hi := min(lo+size, len(xs)-1)
	in := func(ks []geom.KPE) []geom.KPE {
		var out []geom.KPE
		for _, k := range ks {
			if k.Rect.XL >= xs[lo] && k.Rect.XL <= xs[hi] {
				out = append(out, k)
			}
		}
		return out
	}
	return in(R), in(S)
}

// collectorUnits is how many units the collector probe splits its pairs
// into, about the partition-pair count of a repartitioned PBSM join.
const collectorUnits = 64

// collectorProbe carries n pairs through sched.Run on two workers and a
// Collector, checking that they arrive complete and in serial order.
func collectorProbe(n int64, sp *trace.Span) (time.Duration, error) {
	per := (n + collectorUnits - 1) / collectorUnits
	var next uint64
	bad := 0
	t0 := time.Now()
	c := sched.NewCollector(collectorUnits, func(p geom.Pair) {
		if p.R != next {
			bad++
		}
		next++
	})
	err := sched.Run(collectorUnits, sched.Options{Workers: 2, Name: "probe-worker", Span: sp}, func(_, i int) error {
		for k := int64(i) * per; k < min(int64(i+1)*per, n); k++ {
			c.Emit(i, geom.Pair{R: uint64(k), S: uint64(k)})
		}
		c.Done(i)
		return nil
	})
	d := time.Since(t0)
	if err == nil && (bad > 0 || int64(next) != n) {
		err = fmt.Errorf("collector delivered %d of %d pairs, %d out of order", next, n, bad)
	}
	return d, err
}
