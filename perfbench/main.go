// Command perfbench is the repository benchmark. One run measures one
// named workload: it generates the inputs from --seed, computes the
// expected answer with an independent in-memory sweep (the oracle), and
// calls core.Join in a closed loop — one caller, the next join starting
// when the previous one has delivered its last pair — for --seconds.
// Every join is checked against the oracle.
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off. With --trace 1 it prints the per-layer metrics of a separate traced
// run (see layers.go). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero when any join errs, overruns its deadline or fails the oracle
// gate.
//
//	go run . --workload la-pbsm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "length of the measured closed loop in seconds")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = errors.New("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	r := &runner{w: w, seed: *seed, log: stderr}
	dur := time.Duration(*seconds * float64(time.Second))
	var ms *metricSet
	if *traced == 1 {
		ms = newMetricSet(perLayer)
		err = r.layers(dur, ms, *traceDir)
	} else {
		ms = newMetricSet(endToEnd)
		err = r.endToEnd(dur, ms)
	}
	var vals map[string]value
	if err == nil {
		vals, err = ms.values()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	ms.print(stdout)
	fmt.Fprintf(stdout, "joins: %d attempted, %d failed (failed_frac %.4f)\n",
		r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)))
	ok := err == nil && r.failed == 0
	out, jerr := json.Marshal(report{Correct: ok, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: vals})
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !ok {
		return 1
	}
	return 0
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner holds one workload's inputs and oracle answer and counts every
// join it runs, warm-up and probe joins included.
type runner struct {
	w                 workload
	seed              int64
	log               io.Writer
	R, S              []geom.KPE
	want              answer
	attempted, failed int
}

// join runs one checked join of r's inputs under cfg.
func (r *runner) join(cfg core.Config) outcome {
	o := runJoin(r.R, r.S, cfg, r.want)
	r.attempted++
	if o.err != nil {
		r.failed++
		fmt.Fprintf(r.log, "perfbench: %s join %d (%s): %v\n", r.w.name, r.attempted, cfg.Method, o.err)
	}
	return o
}

// setup generates the inputs, computes the oracle answer and runs one
// warm-up join, returning how long the three took together. The previous
// set-up's inputs are collected first, so that repeated set-ups do not
// raise the process's peak memory.
func (r *runner) setup() (time.Duration, error) {
	r.R, r.S = nil, nil
	runtime.GC()
	t0 := time.Now()
	r.R, r.S = r.w.inputs(r.seed)
	r.want = oracle(r.R, r.S)
	if r.want.Pairs == 0 {
		return 0, fmt.Errorf("workload %s seed %d yields no result pairs", r.w.name, r.seed)
	}
	if o := r.join(r.w.config(r.R, r.S, r.w.method)); o.err != nil {
		return 0, fmt.Errorf("warm-up join: %w", o.err)
	}
	return time.Since(t0), nil
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// endToEnd measures the untraced closed loop.
func (r *runner) endToEnd(seconds time.Duration, ms *metricSet) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := r.setup()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	cfg := r.w.config(r.R, r.S, r.w.method)
	var wall, first, total, alloc []float64
	var pairs int64
	var busy time.Duration
	for end := time.Now().Add(seconds); time.Now().Before(end); {
		o := r.join(cfg)
		if o.err != nil {
			continue
		}
		wall = append(wall, o.wall.Seconds())
		first = append(first, o.first.Seconds())
		total = append(total, o.res.Total.Seconds())
		alloc = append(alloc, float64(o.alloc)/1e6)
		pairs += o.got.Pairs
		busy += o.wall
	}
	if len(wall) == 0 {
		return errors.New("no join succeeded")
	}
	ms.samples = len(wall)
	ms.set("setup_s", median(setups))
	ms.set("join_s_p50", median(wall))
	ms.set("first_pair_s_p50", median(first))
	ms.set("pairs_per_s", float64(pairs)/busy.Seconds())
	ms.set("sim_total_s_p50", median(total))
	ms.set("alloc_mb_per_join", median(alloc))
	ms.set("max_rss_mb", maxRSSMB())
	return nil
}

// maxRSSMB is the peak resident set of this process in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricSet collects the values of one mode's metrics, each under the
// unit its spec fixes.
type metricSet struct {
	specs   []metricSpec
	vals    map[string]float64
	samples int // timed joins behind the end-to-end medians
}

func newMetricSet(specs []metricSpec) *metricSet {
	return &metricSet{specs: specs, vals: make(map[string]float64)}
}

func (m *metricSet) set(name string, v float64) { m.vals[name] = v }

// values returns the report's metrics, failing when one is missing,
// unknown or not a finite number.
func (m *metricSet) values() (map[string]value, error) {
	out := make(map[string]value, len(m.specs))
	for _, s := range m.specs {
		v, ok := m.vals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (got %v)", s.Name, v)
		}
		out[s.Name] = value{Value: v, Unit: s.Unit}
	}
	if len(m.vals) != len(out) {
		return nil, fmt.Errorf("%d metrics set, %d specified", len(m.vals), len(out))
	}
	return out, nil
}

func (m *metricSet) print(w io.Writer) {
	for _, s := range m.specs {
		if v, ok := m.vals[s.Name]; ok {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", s.Name, v, s.Unit)
		}
	}
	if m.samples > 0 {
		fmt.Fprintf(w, "timed joins: %d (the medians are over these)\n", m.samples)
	}
}
