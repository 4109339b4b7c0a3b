package extsort

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/recfile"
)

// runFormationOverhead forms the runs of a runs×chunk-sized input and
// returns the bytes run formation allocated beyond the run files it
// stored.
func runFormationOverhead(t *testing.T, runs, parallel int, chunk int64) int64 {
	t.Helper()
	const rs = 256
	d := diskio.NewDisk(1024, 5, time.Millisecond)
	in := d.Create("in")
	w := recfile.NewRecWriter(in, rs, 8)
	rng := rand.New(rand.NewSource(int64(runs)))
	rec := make([]byte, rs)
	for i := int64(0); i < int64(runs)*chunk/rs; i++ {
		binary.LittleEndian.PutUint64(rec, rng.Uint64())
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Disk: d, RecordSize: rs, Memory: chunk, BufPages: 1, Parallel: parallel, Less: u64Less}
	st := Stats{Records: recfile.NumRecs(in, rs)}
	reg := d.NewRegistry()
	defer reg.Sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	formed, err := formRuns(in, cfg, reg, nil, &st)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(formed) != runs {
		t.Fatalf("formed %d runs, want %d", len(formed), runs)
	}
	stored := int64(0)
	for _, r := range formed {
		stored += int64(r.f.Len())
	}
	return int64(after.TotalAlloc-before.TotalAlloc) - stored
}

// TestRunFormationReusesChunkBuffers: run formation allocates one chunk
// buffer per worker, not one per run, so forming 20 runs costs no more
// chunk-sized allocations than forming 2. What each extra run may add is
// its stream buffers and the slack of its file's storage, well under a
// quarter of a chunk.
func TestRunFormationReusesChunkBuffers(t *testing.T) {
	const chunk = 1 << 20
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			few := runFormationOverhead(t, 2, par, chunk)
			many := runFormationOverhead(t, 20, par, chunk)
			if perRun := (many - few) / 18; perRun > chunk/4 {
				t.Fatalf("each extra run allocated %d bytes beyond its stored file (2 runs: %d, 20 runs: %d); chunk is %d", perRun, few, many, chunk)
			}
		})
	}
}
