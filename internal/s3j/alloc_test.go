package s3j

import (
	"testing"
	"time"

	"spatialjoin/internal/geom"
)

// TestJoinCellsAllocatesNothing: joinCells runs once per (arriving cell,
// stack cell) pair of the synchronized scan, so it must not allocate. It
// used to build a fresh result closure on every call.
func TestJoinCellsAllocatesNothing(t *testing.T) {
	for _, mode := range []Mode{ModeOriginal, ModeReplicate} {
		j := newJoiner(Config{Disk: newDisk(), Memory: 1 << 20, Mode: mode})
		j.start = time.Now()
		delivered := 0
		j.emit = func(geom.Pair) { delivered++ }
		rs := []geom.KPE{{ID: 1, Rect: geom.NewRect(0.1, 0.1, 0.3, 0.3)}, {ID: 2, Rect: geom.NewRect(0.2, 0.2, 0.6, 0.6)}}
		ss := []geom.KPE{{ID: 3, Rect: geom.NewRect(0.25, 0.25, 0.4, 0.4)}, {ID: 4, Rect: geom.NewRect(0.9, 0.9, 1, 1)}}
		deeper := stackEntry{level: 1, ix: 0, iy: 0, items: ss}
		if allocs := testing.AllocsPerRun(100, func() { j.joinCells(rs, ss, deeper) }); allocs != 0 {
			t.Fatalf("%v: joinCells allocated %v times per call, want 0", mode, allocs)
		}
		if delivered == 0 {
			t.Fatalf("%v: no pair delivered; the test joins nothing", mode)
		}
	}
}
