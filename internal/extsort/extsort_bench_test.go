package extsort

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/recfile"
)

// External sort dominates the original PBSM duplicate-removal phase and
// S³J's sort phase; these benchmarks track the in-memory and multi-pass
// external regimes separately.
func BenchmarkSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 50000)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	for _, mem := range []int64{16 << 10, 256 << 10, 8 << 20} {
		b.Run(fmt.Sprintf("mem=%dKiB", mem>>10), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := diskio.NewDisk(8192, 20, time.Microsecond)
				in := writeU64sBench(d, vals)
				b.StartTimer()
				out, _, err := Sort(in, Config{
					Disk: d, RecordSize: 8, Memory: mem, Less: u64LessBench,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = out
			}
		})
	}
}

func u64LessBench(a, bb []byte) bool {
	return binary.LittleEndian.Uint64(a) < binary.LittleEndian.Uint64(bb)
}

func writeU64sBench(d *diskio.Disk, vals []uint64) *diskio.File {
	f := d.Create("in")
	w := recfile.NewRecWriter(f, 8, 8)
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], v)
		if err := w.Write(buf[:]); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return f
}
