package recfile

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
)

func newDisk() *diskio.Disk { return diskio.NewDisk(256, 5, time.Millisecond) }

func randKPE(rng *rand.Rand, id uint64) geom.KPE {
	return geom.KPE{
		ID:   id,
		Rect: geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()),
	}
}

func TestKPEWriterReaderRoundTrip(t *testing.T) {
	d := newDisk()
	f := d.Create("k")
	rng := rand.New(rand.NewSource(1))
	w := NewKPEWriter(f, 2)
	var want []geom.KPE
	for i := 0; i < 500; i++ {
		k := randKPE(rng, uint64(i))
		w.Write(k)
		want = append(want, k)
	}
	if w.Count() != 500 {
		t.Fatalf("Count = %d", w.Count())
	}
	w.Flush()
	if NumKPEs(f) != 500 {
		t.Fatalf("NumKPEs = %d", NumKPEs(f))
	}

	r := NewKPEReader(f, 3)
	if r.RecordsLeft() != 500 {
		t.Fatalf("RecordsLeft = %d", r.RecordsLeft())
	}
	for i, k := range want {
		got, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("short stream at %d (ok=%v err=%v)", i, ok, err)
		}
		if got != k {
			t.Fatalf("record %d: got %v want %v", i, got, k)
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("stream must end cleanly (ok=%v err=%v)", ok, err)
	}
}

func TestReadAllKPEs(t *testing.T) {
	d := newDisk()
	f := d.Create("k")
	rng := rand.New(rand.NewSource(2))
	w := NewKPEWriter(f, 2)
	var want []geom.KPE
	for i := 0; i < 123; i++ {
		k := randKPE(rng, uint64(i))
		w.Write(k)
		want = append(want, k)
	}
	w.Flush()
	got, err := ReadAllKPEs(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if got, err := ReadAllKPEs(d.Create("empty"), 4); err != nil || len(got) != 0 {
		t.Fatalf("empty file must yield no records (err=%v)", err)
	}
}

func TestKPERangeReader(t *testing.T) {
	d := newDisk()
	f := d.Create("k")
	w := NewKPEWriter(f, 2)
	for i := 0; i < 100; i++ {
		w.Write(geom.KPE{ID: uint64(i)})
	}
	w.Flush()
	r := NewKPERangeReader(f, 2, 10, 20)
	for want := uint64(10); want < 20; want++ {
		k, ok, err := r.Next()
		if err != nil || !ok || k.ID != want {
			t.Fatalf("range read got (%v,%v,%v), want id %d", k, ok, err, want)
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("range must end at record 20 (ok=%v err=%v)", ok, err)
	}
}

func TestPairWriterReaderRoundTrip(t *testing.T) {
	d := newDisk()
	f := d.Create("p")
	w := NewPairWriter(f, 2)
	var want []geom.Pair
	for i := 0; i < 300; i++ {
		p := geom.Pair{R: uint64(i), S: uint64(i * 7)}
		w.Write(p)
		want = append(want, p)
	}
	w.Flush()
	if w.Count() != 300 {
		t.Fatalf("Count = %d", w.Count())
	}
	r := NewPairReader(f, 2)
	for i, p := range want {
		got, ok, err := r.Next()
		if err != nil || !ok || got != p {
			t.Fatalf("pair %d: got (%v,%v,%v)", i, got, ok, err)
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("stream must end cleanly (ok=%v err=%v)", ok, err)
	}
}

func TestWritesAreCharged(t *testing.T) {
	d := newDisk()
	f := d.Create("k")
	w := NewKPEWriter(f, 1)
	for i := 0; i < 100; i++ { // 4000 bytes, 256-byte pages, 1-page buffer
		w.Write(geom.KPE{ID: uint64(i)})
	}
	w.Flush()
	st := d.Stats()
	if st.WriteRequests < 15 {
		t.Fatalf("expected many buffered flushes, got %d requests", st.WriteRequests)
	}
	if st.PagesWritten < 15 {
		t.Fatalf("PagesWritten = %d", st.PagesWritten)
	}
}

// TestWriterStaysFailedAfterError: once a frame emit fails, the writer
// keeps returning that error from Grab, Write, Commit and Flush. It used
// to keep its full frame and panic on the next Write with "slice bounds
// out of range" in Grab.
func TestWriterStaysFailedAfterError(t *testing.T) {
	d := diskio.NewDisk(8192, 5, time.Millisecond)
	errStop := errors.New("stop")
	d.SetCancel(func() error { return errStop })
	f := d.Create("k")
	w := NewKPEWriter(f, 1)
	var first error
	for i := 0; i < 3*recsPerFrame(geom.KPESize); i++ {
		err := w.Write(geom.KPE{ID: uint64(i)})
		if first == nil {
			first = err
		} else if err != first {
			t.Fatalf("write %d after the first failure returned %v, want %v", i, err, first)
		}
	}
	if !errors.Is(first, errStop) {
		t.Fatalf("first failure = %v, want the cancel hook's error", first)
	}
	if _, err := w.w.Grab(); err != first {
		t.Fatalf("Grab after failure = %v", err)
	}
	if err := w.w.Commit(); err != first {
		t.Fatalf("Commit after failure = %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Flush(); err != first {
			t.Fatalf("Flush %d after failure = %v", i, err)
		}
	}
	if f.Len() != 0 {
		t.Fatalf("failed writer persisted %d bytes", f.Len())
	}
}

// TestFlushFailureIsSticky: a Flush that fails after sealing the final
// frame must not report success when called again.
func TestFlushFailureIsSticky(t *testing.T) {
	d := newDisk()
	f := d.Create("k")
	w := NewKPEWriter(f, 2)
	if err := w.Write(geom.KPE{ID: 1}); err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop")
	d.SetCancel(func() error { return errStop })
	if err := w.Flush(); !errors.Is(err, errStop) {
		t.Fatalf("Flush = %v, want the cancel hook's error", err)
	}
	d.SetCancel(nil)
	if err := w.Flush(); !errors.Is(err, errStop) {
		t.Fatalf("second Flush = %v, want the first failure again", err)
	}
}
