package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/trace"
)

// tiny is a small workload with the shape of the real ones, so the
// benchmark's own code runs in well under a second per mode.
func tiny(m core.Method) workload {
	return workload{
		name: "tiny-" + string(m),
		inputs: func(seed int64) (R, S []geom.KPE) {
			return datagen.Uniform(2*seed, 3000, 0.02), datagen.Uniform(2*seed+1, 3000, 0.02)
		},
		method:  m,
		memFrac: 0.2,
	}
}

func pairsOf(t *testing.T, w workload) (R, S []geom.KPE, ps []geom.Pair) {
	t.Helper()
	R, S = w.inputs(1)
	ps, _, err := core.Collect(R, S, w.config(R, S, w.method))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) < 2 {
		t.Fatalf("only %d pairs", len(ps))
	}
	return R, S, ps
}

func answerOf(ps []geom.Pair) answer {
	var a answer
	for _, p := range ps {
		a.add(p)
	}
	return a
}

func TestOracleGate(t *testing.T) {
	R, S, ps := pairsOf(t, tiny(core.PBSM))
	want := oracle(R, S)
	if err := check(answerOf(ps), want); err != nil {
		t.Fatalf("exact result rejected: %v", err)
	}
	n := len(ps)
	bad := map[string][]geom.Pair{
		"dropped":            ps[:n-1],
		"duplicated":         append(append([]geom.Pair(nil), ps...), ps[0]),
		"dropped+duplicated": append(append([]geom.Pair(nil), ps[:n-1]...), ps[0]),
		"swapped":            append(append([]geom.Pair(nil), ps[:n-1]...), geom.Pair{R: ps[n-1].S, S: ps[n-1].R}),
	}
	for name, got := range bad {
		if check(answerOf(got), want) == nil {
			t.Errorf("%s pair passed the oracle gate", name)
		}
	}
	// Emission order must not matter.
	rev := append([]geom.Pair(nil), ps...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if err := check(answerOf(rev), want); err != nil {
		t.Errorf("reordered result rejected: %v", err)
	}
}

func TestRunJoinCountsFailures(t *testing.T) {
	w := tiny(core.PBSM)
	r := &runner{w: w, seed: 1, log: &bytes.Buffer{}}
	if _, err := r.setup(); err != nil {
		t.Fatal(err)
	}
	cfg := w.config(r.R, r.S, w.method)
	r.want.Pairs++
	if o := r.join(cfg); o.err == nil {
		t.Error("join passed against a wrong answer")
	}
	r.want.Pairs--
	cfg.Deadline = time.Nanosecond
	if o := r.join(cfg); o.err == nil {
		t.Error("join past its deadline did not fail")
	}
	if r.attempted != 3 || r.failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2", r.attempted, r.failed)
	}
}

// TestModes runs both modes on the tiny workloads and checks that each
// reports exactly its metrics.
func TestModes(t *testing.T) {
	for _, m := range []core.Method{core.PBSM, core.S3J} {
		for _, traced := range []bool{false, true} {
			r := &runner{w: tiny(m), seed: 3, log: &bytes.Buffer{}}
			ms := newMetricSet(endToEnd)
			var err error
			if traced {
				ms = newMetricSet(perLayer)
				err = r.layers(50*time.Millisecond, ms, t.TempDir())
			} else {
				err = r.endToEnd(50*time.Millisecond, ms)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", m, traced, err)
			}
			if _, err := ms.values(); err != nil {
				t.Errorf("%s traced=%v: %v", m, traced, err)
			}
			if r.failed != 0 || r.attempted < 2 {
				t.Errorf("%s traced=%v: %d of %d joins failed", m, traced, r.failed, r.attempted)
			}
		}
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("unknown workload printed %q", out.String())
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []trace.SpanData{
		{ID: 1, Name: "root", Start: 0, Dur: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, Dur: 2 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 2 * ms, Dur: 3 * ms},
		{ID: 4, Parent: 1, Name: "b", Start: 8 * ms, Dur: 4 * ms},
		{ID: 5, Parent: 4, Name: "c", Start: 9 * ms, Dur: 1 * ms},
		{ID: 6, Parent: 1, Name: "fault", Start: 3 * ms, Instant: true},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 4 * ms, "a": 5 * ms, "b": 3 * ms, "c": 1 * ms}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, got[name], d)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q differs from workload.go", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics, spec has %d (cap 16)", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		name(m.Name)
		s := endToEnd[i]
		if m.Bound == nil || m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || *m.Bound != s.Bound {
			t.Errorf("end-to-end %d %q differs from spec.go", i, m.Name)
			continue
		}
		if !unitRe.MatchString(m.Unit) || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, *m.Bound)
		}
		if *m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s's, which must be the largest", m.Name, *m.Bound)
		}
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower better; got %+v", s)
	}
	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, spec has %d (cap 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || !unitRe.MatchString(m.Unit) {
			t.Errorf("per-layer %d %q differs from spec.go or has a bad unit", i, m.Name)
		}
	}
}

func TestPerLayerMetricsNameTheirTargets(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range workloads {
		wl[w.name] = true
	}
	for _, m := range perLayer {
		if len(m.Moves) == 0 {
			t.Errorf("%s names no end-to-end metric it should move", m.Name)
		}
		for _, tg := range m.Moves {
			if !e2e[tg.Metric] || !wl[tg.Workload] {
				t.Errorf("%s: unknown target %s on %s", m.Name, tg.Metric, tg.Workload)
			}
		}
	}
}
