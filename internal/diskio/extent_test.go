package diskio

import (
	"bytes"
	"io"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// modelFile writes random-size chunks through a Writer, mirroring every
// persisted byte in a flat slice, and checks after each flush that no
// byte already stored in a full extent has moved.
func modelFile(t *testing.T, rng *rand.Rand, d *Disk, total int) (*File, []byte) {
	t.Helper()
	f := d.Create("")
	w := f.NewWriter(1 + rng.Intn(12))
	var model []byte
	var extents []*byte // first byte of every full extent seen so far
	for len(model) < total {
		p := make([]byte, 1+rng.Intn(3*d.PageSize()))
		rng.Read(p)
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		model = append(model, p...)
		if rng.Intn(4) == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for i, e := range f.ext {
			if len(e) < extentSize {
				break
			}
			if i < len(extents) && extents[i] != &e[0] {
				t.Fatalf("extent %d moved after an append", i)
			}
			if i == len(extents) {
				extents = append(extents, &e[0])
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return f, model
}

// checkWindows compares ReadAt and NewRangeReader against the flat model
// over random windows, over windows straddling every extent boundary,
// and at the end of file; it also checks each request is charged as the
// cost model says.
func checkWindows(t *testing.T, rng *rand.Rand, d *Disk, f *File, model []byte) {
	t.Helper()
	if f.Len() != len(model) || !bytes.Equal(f.Bytes(), model) {
		t.Fatalf("file holds %d bytes, model %d, or contents differ", f.Len(), len(model))
	}
	type window struct{ off, n int }
	var ws []window
	for i := 0; i < 200; i++ {
		ws = append(ws, window{rng.Intn(len(model) + 10), rng.Intn(2 * extentSize)})
	}
	for b := extentSize; b <= len(model)+extentSize; b += extentSize {
		ws = append(ws, window{b - 1, 2}, window{b - 7, extentSize + 14}, window{b - extentSize, extentSize}, window{b, 1})
	}
	ws = append(ws, window{len(model), 1}, window{len(model) - 1, 5}, window{0, len(model)})
	for _, w := range ws {
		if w.off < 0 {
			continue
		}
		want := []byte{}
		if w.off < len(model) {
			want = model[w.off:min(w.off+w.n, len(model))]
		}

		p := make([]byte, w.n)
		before := d.Stats()
		n, err := f.ReadAt(p, int64(w.off))
		delta := d.Stats().Sub(before)
		switch {
		case n != len(want) || !bytes.Equal(p[:n], want):
			t.Fatalf("ReadAt(%d, off %d) returned %d bytes, model has %d or contents differ", w.n, w.off, n, len(want))
		case n < w.n && err != io.EOF, n == w.n && err != nil:
			t.Fatalf("ReadAt(%d, off %d) = (%d, %v): wrong EOF contract", w.n, w.off, n, err)
		case delta.PagesRead != d.pages(n) || delta.ReadRequests != min(d.pages(n), 1):
			t.Fatalf("ReadAt of %d bytes charged %+v", n, delta)
		}

		bufPages := 1 + rng.Intn(10)
		r := f.NewRangeReader(bufPages, int64(w.off), int64(w.off+w.n))
		before = d.Stats()
		got := make([]byte, w.n+1)
		n, err = r.Read(got)
		delta = d.Stats().Sub(before)
		bufBytes := bufPages * d.PageSize()
		switch {
		case err != nil:
			t.Fatal(err)
		case n != len(want) || !bytes.Equal(got[:n], want):
			t.Fatalf("range [%d,%d) read %d bytes, model has %d or contents differ", w.off, w.off+w.n, n, len(want))
		case delta.ReadRequests != int64((n+bufBytes-1)/bufBytes):
			t.Fatalf("range read of %d bytes in %d-byte requests charged %d requests", n, bufBytes, delta.ReadRequests)
		}
	}
}

// TestExtentStorageMatchesFlatModel: random-size appends and random read
// windows agree byte for byte with a flat []byte, including windows that
// straddle extent boundaries and files that end exactly on one.
func TestExtentStorageMatchesFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewDisk(1024*(1+rng.Intn(8)), 10, time.Millisecond)
		f, model := modelFile(t, rng, d, 1+rng.Intn(5*extentSize))
		checkWindows(t, rng, d, f, model)
	}
}

// TestExtentAlignedEOF: a file whose length is an exact multiple of the
// extent size ends exactly at an extent boundary; reads there must see
// a clean EOF, not an empty extent or an index past the extent list.
func TestExtentAlignedEOF(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		rng := rand.New(rand.NewSource(int64(k)))
		d := NewDisk(4096, 10, time.Millisecond)
		f := d.Create("")
		w := f.NewWriter(16) // one request per extent
		model := make([]byte, k*extentSize)
		rng.Read(model)
		if _, err := w.Write(model); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(f.ext) != k {
			t.Fatalf("%d extent-sized bytes stored in %d extents", k*extentSize, len(f.ext))
		}
		if n, err := f.ReadAt(make([]byte, 1), int64(f.Len())); n != 0 || err != io.EOF {
			t.Fatalf("ReadAt at aligned EOF = (%d, %v)", n, err)
		}
		last := make([]byte, extentSize)
		if n, err := f.ReadAt(last, int64(f.Len()-extentSize)); n != extentSize || err != nil || !bytes.Equal(last, model[len(model)-extentSize:]) {
			t.Fatalf("ReadAt of the last whole extent = (%d, %v)", n, err)
		}
		if n, _ := f.NewRangeReader(4, int64(f.Len()), int64(f.Len())+10).Read(last); n != 0 {
			t.Fatalf("range reader at aligned EOF read %d bytes", n)
		}
		checkWindows(t, rng, d, f, model)
		// Appending after an aligned end opens a fresh extent.
		if _, err := w.Write([]byte{7}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		checkWindows(t, rng, d, f, append(model, 7))
	}
}

// TestFaultsAcrossExtentBoundaries: torn writes and bit flips whose
// requests straddle an extent boundary keep their semantics — a torn
// request persists a strict prefix, a flipped one its full length with
// exactly one bit inverted — and every later read agrees with the model.
func TestFaultsAcrossExtentBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDisk(4096, 10, time.Millisecond)
	fp := NewFaultPolicy(FaultConfig{Seed: 7, TornWriteRate: 0.3, BitFlipRate: 0.3})
	d.SetFaultPolicy(fp)
	f := d.Create("")
	w := f.NewWriter(6) // 24 KiB requests: not a divisor of the extent size
	var model []byte
	var tornAcross, flipAcross int
	for f.Len() < 6*extentSize {
		p := make([]byte, 6*d.PageSize())
		rng.Read(p)
		before := fp.Stats()
		start := f.Len()
		if _, err := w.Write(p); err != nil { // exactly one request
			t.Fatal(err)
		}
		got := f.Bytes()[start:]
		after := fp.Stats()
		across := len(got) > 0 && start/extentSize != (start+len(got)-1)/extentSize
		switch {
		case after.TornWrites > before.TornWrites:
			if len(got) == 0 || len(got) >= len(p) || !bytes.Equal(got, p[:len(got)]) {
				t.Fatalf("torn request persisted %d of %d bytes, not a strict prefix", len(got), len(p))
			}
			model = append(model, got...)
			if across {
				tornAcross++
			}
		case after.BitFlips > before.BitFlips:
			diff := 0
			for i := range got {
				diff += bits.OnesCount8(p[i] ^ got[i])
			}
			if len(got) != len(p) || diff != 1 {
				t.Fatalf("flipped request persisted %d of %d bytes with %d bits changed", len(got), len(p), diff)
			}
			model = append(model, got...)
			if across {
				flipAcross++
			}
		default:
			model = append(model, p...)
		}
	}
	if tornAcross == 0 || flipAcross == 0 {
		t.Fatalf("schedule tore %d and flipped %d boundary-straddling requests; want both > 0", tornAcross, flipAcross)
	}
	fp.Disable()
	checkWindows(t, rng, d, f, model)
}

// TestWriterAllocationLinear: writing N bytes through a Writer allocates
// little more than the N bytes it stores. Growing one flat slice by
// append allocated (and copied) about three times N.
func TestWriterAllocationLinear(t *testing.T) {
	const total = 8 << 20
	d := NewDisk(DefaultPageSize, DefaultPT, DefaultTransfer)
	p := make([]byte, 1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := d.Create("big")
	w := f.NewWriter(4)
	for n := 0; n < total; n += len(p) {
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.1*float64(f.Len()) {
		t.Fatalf("writing %d bytes allocated %d bytes, want under 1.1x", f.Len(), alloc)
	}
}

// BenchmarkWriterAppend measures the write path of the simulated disk:
// buffered appends of 1 MiB per iteration into a fresh file.
func BenchmarkWriterAppend(b *testing.B) {
	d := NewDisk(DefaultPageSize, DefaultPT, DefaultTransfer)
	p := make([]byte, 4096)
	b.ReportAllocs()
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		f := d.Create("bench")
		w := f.NewWriter(4)
		for n := 0; n < 1<<20; n += len(p) {
			if _, err := w.Write(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
