package s3j

import (
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
)

// BenchmarkScanPhase measures just the synchronized scan (phase 3):
// partitioning and sorting run once, then each iteration re-scans the
// same sorted level files. The scan is dominated by the cursor heap, so
// this benchmark shows the win from caching the code-interval start on
// the cursor (computed once per record in fillPeek) instead of
// recomputing the bit-interleaved interval in every heap comparison, and
// its allocations show the reuse of group buffers across cells.
func BenchmarkScanPhase(b *testing.B) {
	R := datagen.Uniform(21, 20000, 0.004)
	S := datagen.Uniform(22, 20000, 0.004)
	d := diskio.NewDisk(1024, 10, time.Millisecond)
	cfg := Config{Disk: d, Memory: 1 << 20, Mode: ModeReplicate}
	j := newJoiner(cfg)
	defer j.reg.Sweep()
	j.start = time.Now()
	j.emit = func(geom.Pair) {}
	levels := cfg.levels()
	filesR, _, err := j.partitionInput(R, levels)
	if err != nil {
		b.Fatal(err)
	}
	filesS, _, err := j.partitionInput(S, levels)
	if err != nil {
		b.Fatal(err)
	}
	for l := 1; l <= levels; l++ {
		if filesR[l], _, err = j.sortLevel(filesR[l], nil); err != nil {
			b.Fatal(err)
		}
		if filesS[l], _, err = j.sortLevel(filesS[l], nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.stats = Stats{}
		if err := j.scan(filesR, filesS); err != nil {
			b.Fatal(err)
		}
	}
}
