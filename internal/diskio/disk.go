// Package diskio simulates the secondary-storage model of §2 of the
// paper. Data is transferred between main memory and disk in pages of
// fixed size; a request for n contiguous pages costs PT + n
// page-transfer units, where PT is the ratio of positioning time to
// transfer time. Reading the join inputs and writing the final output are
// free of charge in the paper's model, so only intermediate files
// (partitions, level files, sort runs) are created on a Disk.
//
// Files are held in memory; the simulation is about *accounting*, not
// persistence. Every read and write request is charged to the Disk's
// counters, and the accumulated cost converts to simulated seconds via
// the configured page-transfer time. File contents live in fixed-size
// extents, so appending to a file never re-copies what it already holds.
//
// Cost accounting and the file directory are guarded by a mutex, so
// multiple goroutines may read distinct files concurrently (the parallel
// join phase of PBSM relies on this). Concurrent writers to the SAME
// file are not supported.
package diskio

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Default model parameters. PT=20 with a 0.5 ms page-transfer time models
// a 10 ms average positioning time, in the ballpark of the 2 GB Seagate
// disk of the paper's testbed.
const (
	DefaultPageSize = 8192
	DefaultPT       = 20.0
	DefaultTransfer = 500 * time.Microsecond
)

// Disk is a simulated disk device. The zero value is not usable; call
// NewDisk.
type Disk struct {
	pageSize int
	pt       float64
	transfer time.Duration

	mu      sync.Mutex
	stats   Stats
	files   map[string]*File
	seq     int
	fp      *FaultPolicy
	tr      Tracer
	cancel  func() error
	latency time.Duration
	backoff *Backoff

	// met holds the live-metrics handles installed by SetMetrics, read
	// on every request with one atomic load so the disabled mode costs a
	// pointer test (see metrics.go).
	met atomic.Pointer[diskMetrics]
}

// Tracer receives rare storage-layer events: request retries after
// transient faults, injected latency spikes, torn writes and bit flips.
// Only exceptional events are reported — the per-request hot path stays
// untraced — so attaching a tracer costs nothing on a healthy disk.
// Implementations must be safe for concurrent use; *trace.Recorder
// satisfies the interface.
type Tracer interface {
	IOEvent(kind, file string)
}

// Stats aggregates the I/O activity charged to a Disk.
type Stats struct {
	ReadRequests  int64   // positioned read requests
	WriteRequests int64   // positioned write requests
	PagesRead     int64   // total pages transferred in
	PagesWritten  int64   // total pages transferred out
	CostUnits     float64 // sum of PT + n over all requests
	Retries       int64   // request retries after transient faults (recfile layer)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ReadRequests += other.ReadRequests
	s.WriteRequests += other.WriteRequests
	s.PagesRead += other.PagesRead
	s.PagesWritten += other.PagesWritten
	s.CostUnits += other.CostUnits
	s.Retries += other.Retries
}

// Sub returns s minus other, useful for per-phase deltas.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		ReadRequests:  s.ReadRequests - other.ReadRequests,
		WriteRequests: s.WriteRequests - other.WriteRequests,
		PagesRead:     s.PagesRead - other.PagesRead,
		PagesWritten:  s.PagesWritten - other.PagesWritten,
		CostUnits:     s.CostUnits - other.CostUnits,
		Retries:       s.Retries - other.Retries,
	}
}

// NewDisk creates a Disk with the given page size in bytes, positioning
// ratio pt, and per-page transfer time. Non-positive arguments select the
// package defaults.
func NewDisk(pageSize int, pt float64, transfer time.Duration) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pt <= 0 {
		pt = DefaultPT
	}
	if transfer <= 0 {
		transfer = DefaultTransfer
	}
	return &Disk{
		pageSize: pageSize,
		pt:       pt,
		transfer: transfer,
		files:    make(map[string]*File),
	}
}

// PageSize returns the page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// SetLatency turns the accounting-only cost model into real wall-clock
// latency: every subsequent request sleeps perUnit for each cost unit it
// is charged (PT + pages transferred). Zero (the default) disables the
// sleep and restores pure accounting.
//
// The sleep happens outside the Disk mutex, so requests from different
// goroutines overlap — exactly the behavior of a device that can serve
// queued requests while callers wait. The parallel-speedup benchmark
// (bench.RunParallel) relies on this to measure I/O-overlap wins in real
// wall time; everything else (tests, the paper experiments) leaves the
// latency at zero so the simulation stays instantaneous.
func (d *Disk) SetLatency(perUnit time.Duration) {
	d.mu.Lock()
	d.latency = perUnit
	d.mu.Unlock()
}

// SetFaultPolicy installs (or, with nil, removes) a fault-injection
// policy consulted on every subsequent read and write request.
func (d *Disk) SetFaultPolicy(fp *FaultPolicy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fp = fp
}

// FaultPolicy returns the installed policy, or nil.
func (d *Disk) FaultPolicy() *FaultPolicy {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fp
}

// SetTracer installs (or, with nil, removes) an event tracer notified
// of retries and injected faults on this disk.
func (d *Disk) SetTracer(tr Tracer) {
	d.mu.Lock()
	d.tr = tr
	d.mu.Unlock()
}

func (d *Disk) tracer() Tracer {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tr
}

// SetCancel installs (or, with nil, removes) a cancellation hook
// consulted before every read and write request. When the hook returns a
// non-nil error the request fails with it instead of touching the device
// — so a canceled join stops issuing I/O within one request, the
// "bounded number of page I/Os" half of the cancellation guarantee.
// Create, Remove and Open never consult the hook: cleanup (sweeping temp
// files after an abort) must always succeed.
func (d *Disk) SetCancel(fn func() error) {
	d.mu.Lock()
	d.cancel = fn
	d.mu.Unlock()
}

// checkCancel runs the installed cancellation hook, if any.
func (d *Disk) checkCancel() error {
	d.mu.Lock()
	fn := d.cancel
	d.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// emitEvent forwards an event to the tracer, if any, and counts
// injected faults on the live registry (retries are metered separately
// in NoteRetry). Called without d.mu held so tracer implementations
// may take their own locks freely.
func (d *Disk) emitEvent(kind, file string) {
	if kind != "retry" {
		d.meterFault(kind)
	}
	if tr := d.tracer(); tr != nil {
		tr.IOEvent(kind, file)
	}
}

// NoteRetry records one retry of a request against the named file after
// a transient fault. The record layers (package recfile) call it so that
// retry counts surface in the per-join Stats deltas and, when a Tracer
// is attached, as retry events in the trace.
func (d *Disk) NoteRetry(file string) {
	d.mu.Lock()
	d.stats.Retries++
	d.mu.Unlock()
	d.meterRetry()
	d.emitEvent("retry", file)
}

// SetBackoff installs (or, with nil, removes) the retry backoff policy
// the record layers consult between attempts via RetrySleep. The
// default nil policy preserves the historical behavior: retries happen
// immediately, with no pause.
func (d *Disk) SetBackoff(b *Backoff) {
	d.mu.Lock()
	d.backoff = b
	d.mu.Unlock()
}

// Backoff returns the installed retry policy, or nil.
func (d *Disk) Backoff() *Backoff {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.backoff
}

// RetrySleep pauses before retry attempt (1-based) of a request against
// the named file, according to the installed backoff policy. The sleep
// is cancellation-aware: it polls the disk's cancel hook (SetCancel)
// and returns its error early, so a canceled join does not serve out a
// backoff it will never use. With no policy installed it only polls the
// hook once — the legacy immediate retry.
func (d *Disk) RetrySleep(file string, attempt int) error {
	b := d.Backoff()
	if b == nil {
		return d.checkCancel()
	}
	return b.Sleep(file, attempt, d.checkCancel)
}

// PT returns the positioning-to-transfer ratio of the cost model.
func (d *Disk) PT() float64 { return d.pt }

// Stats returns a snapshot of the accumulated counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters without touching file contents.
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// SimTime converts the accumulated cost units into simulated wall time.
func (d *Disk) SimTime() time.Duration { return d.CostTime(d.Stats().CostUnits) }

// CostTime converts a cost-unit count into simulated wall time.
func (d *Disk) CostTime(units float64) time.Duration {
	return time.Duration(units * float64(d.transfer))
}

// Create makes a new empty file. An empty name generates a unique one.
// Creating over an existing name truncates it.
func (d *Disk) Create(name string) *File {
	d.mu.Lock()
	defer d.mu.Unlock()
	if name == "" {
		d.seq++
		name = fmt.Sprintf("tmp-%d", d.seq)
	}
	f := &File{d: d, name: name}
	d.files[name] = f
	return f
}

// Remove deletes a file and releases its memory. Removing is free of
// charge (directory operations are outside the cost model).
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, name)
}

// NumFiles returns how many files currently exist on the disk. Tests
// use it to prove a finished join — successful, failed or canceled —
// left no orphan temp files behind.
func (d *Disk) NumFiles() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.files)
}

// FileNames returns the names of all files currently on the disk, in no
// particular order. Diagnostic companion to NumFiles.
func (d *Disk) FileNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	return names
}

// Open returns an existing file by name, or nil if absent.
func (d *Disk) Open(name string) *File {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.files[name]
}

// pages returns the number of pages needed for n bytes.
func (d *Disk) pages(n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + d.pageSize - 1) / d.pageSize)
}

func (d *Disk) chargeRead(bytes int) {
	p := d.pages(bytes)
	if p == 0 {
		return
	}
	units := d.pt + float64(p)
	d.mu.Lock()
	d.stats.ReadRequests++
	d.stats.PagesRead += p
	d.stats.CostUnits += units
	lat := d.latency
	d.mu.Unlock()
	d.meterRead(p)
	sleepUnits(lat, units)
}

func (d *Disk) chargeWrite(bytes int) {
	p := d.pages(bytes)
	if p == 0 {
		return
	}
	units := d.pt + float64(p)
	d.mu.Lock()
	d.stats.WriteRequests++
	d.stats.PagesWritten += p
	d.stats.CostUnits += units
	lat := d.latency
	d.mu.Unlock()
	d.meterWrite(p)
	sleepUnits(lat, units)
}

// sleepUnits realizes a charged cost as wall-clock latency (SetLatency).
// Called with the Disk mutex released so concurrent requests overlap.
func sleepUnits(perUnit time.Duration, units float64) {
	if perUnit > 0 {
		time.Sleep(time.Duration(units * float64(perUnit)))
	}
}

// chargeLatencySpike bills an extra positioning, the cost of an injected
// latency fault (a seek gone long) against the named file.
func (d *Disk) chargeLatencySpike(file string) {
	d.mu.Lock()
	d.stats.CostUnits += d.pt
	lat := d.latency
	d.mu.Unlock()
	sleepUnits(lat, d.pt)
	d.emitEvent("latency-fault", file)
}

// extentSize is the allocation unit of file contents. A file is a list
// of extents, each extentSize bytes except possibly the last, so an
// append never moves bytes already written and byte offset off lives at
// extent off/extentSize. Extents are a host-memory layout only: the
// cost model charges requests by pages, whatever the extents look like.
const extentSize = 64 << 10

// File is a simulated on-disk file: a byte sequence plus cost accounting.
// Use NewWriter and NewReader for buffered sequential access, or ReadAt
// for positioned reads (each ReadAt is one positioned request).
type File struct {
	d    *Disk
	name string
	ext  [][]byte // contents; every extent but the last is full
	size int
}

// Name returns the file's name on its Disk.
func (f *File) Name() string { return f.name }

// Disk returns the device the file lives on.
func (f *File) Disk() *Disk { return f.d }

// Len returns the file length in bytes.
func (f *File) Len() int { return f.size }

// Pages returns the file length in pages (rounded up).
func (f *File) Pages() int64 { return f.d.pages(f.size) }

// appendBytes stores p at the end of the file. The first extent grows by
// doubling up to extentSize, so small files stay small; later extents
// are allocated whole.
func (f *File) appendBytes(p []byte) {
	for len(p) > 0 {
		k := len(f.ext)
		if k == 0 || len(f.ext[k-1]) == extentSize {
			c := extentSize
			if k == 0 && len(p) < c {
				c = len(p)
			}
			f.ext = append(f.ext, make([]byte, 0, c))
			k++
		}
		e := f.ext[k-1]
		n := min(extentSize-len(e), len(p))
		if len(e)+n > cap(e) {
			g := make([]byte, len(e), min(extentSize, max(2*cap(e), len(e)+n)))
			copy(g, e)
			e = g
		}
		f.ext[k-1] = append(e, p[:n]...)
		f.size += n
		p = p[n:]
	}
}

// copyAt copies file bytes starting at off into p, crossing extent
// boundaries as needed, and returns the count copied. It charges nothing.
func (f *File) copyAt(p []byte, off int64) int {
	n := 0
	for n < len(p) && off < int64(f.size) {
		e := f.ext[off/extentSize]
		c := copy(p[n:], e[off%extentSize:])
		n += c
		off += int64(c)
	}
	return n
}

// ErrNegativeOffset is returned by ReadAt for offsets below zero, which
// indicate a caller bug rather than an end-of-file condition.
var ErrNegativeOffset = errors.New("diskio: negative read offset")

// ReadAt copies len(p) bytes starting at off into p and charges one
// positioned read request. It follows the io.ReaderAt contract: a
// negative offset returns ErrNegativeOffset, an offset at or past end of
// file returns (0, io.EOF), and a read cut short by end of file returns
// the bytes copied together with io.EOF.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	if off >= int64(f.size) {
		return 0, io.EOF
	}
	n := f.copyAt(p, off)
	f.d.chargeRead(n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Bytes returns a copy of the raw contents, for inspection in tests. It
// charges no I/O, and modifying the copy does not change the file.
func (f *File) Bytes() []byte {
	b := make([]byte, f.size)
	f.copyAt(b, 0)
	return b
}

// Writer buffers sequential appends to a File, flushing whole buffers as
// single positioned write requests of contiguous pages. The buffer size
// is what the join algorithms account against their memory budget.
type Writer struct {
	f   *File
	buf []byte
	n   int
}

// NewWriter returns a Writer with a buffer of bufPages pages (minimum 1).
func (f *File) NewWriter(bufPages int) *Writer {
	if bufPages < 1 {
		bufPages = 1
	}
	return &Writer{f: f, buf: make([]byte, bufPages*f.d.pageSize)}
}

// Write appends p, flushing as buffers fill. It returns the number of
// bytes consumed into the buffer; on a transient flush fault the
// consumed bytes stay buffered, so calling Write again with the
// remaining slice (or Flush) retries the same device request.
func (w *Writer) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := copy(w.buf[w.n:], p)
		w.n += n
		total += n
		p = p[n:]
		if w.n == len(w.buf) {
			if err := w.flush(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

func (w *Writer) flush() error {
	if w.n == 0 {
		return nil
	}
	d := w.f.d
	if err := d.checkCancel(); err != nil {
		// The buffer stays intact, but a canceled join never retries:
		// the context error propagates out of the record layers.
		return err
	}
	if fp := d.FaultPolicy(); fp != nil {
		act, arg := fp.onWrite(w.n)
		switch act {
		case writeTransient:
			// Nothing persisted; the buffer is intact for a retry.
			return &FaultError{Op: "write", File: w.f.name, Transient: true}
		case writeTorn:
			// Persist a prefix and report success — the silent partial
			// write the checksummed frame format exists to catch.
			w.f.appendBytes(w.buf[:arg])
			d.chargeWrite(arg)
			w.n = 0
			d.emitEvent("torn-write", w.f.name)
			return nil
		case writeFlip:
			// The buffer is consumed by this request either way, so the
			// bit is flipped in it before the bytes are persisted.
			w.buf[arg/8] ^= 1 << (arg % 8)
			w.f.appendBytes(w.buf[:w.n])
			d.chargeWrite(w.n)
			w.n = 0
			d.emitEvent("bit-flip", w.f.name)
			return nil
		case writeLatency:
			d.chargeLatencySpike(w.f.name)
		}
	}
	w.f.appendBytes(w.buf[:w.n])
	d.chargeWrite(w.n)
	w.n = 0
	return nil
}

// Flush forces any buffered bytes to disk as one request.
func (w *Writer) Flush() error { return w.flush() }

// Reader scans a File (or a byte range of it) sequentially, fetching
// bufPages pages per positioned read request.
type Reader struct {
	f        *File
	buf      []byte
	lo, hi   int64 // remaining unread range in the file
	pos, end int   // valid window within buf
}

// NewReader returns a sequential Reader over the whole file.
func (f *File) NewReader(bufPages int) *Reader {
	return f.NewRangeReader(bufPages, 0, int64(f.size))
}

// NewRangeReader returns a sequential Reader over file bytes [lo, hi).
func (f *File) NewRangeReader(bufPages int, lo, hi int64) *Reader {
	if bufPages < 1 {
		bufPages = 1
	}
	if hi > int64(f.size) {
		hi = int64(f.size)
	}
	if lo > hi {
		lo = hi
	}
	return &Reader{f: f, buf: make([]byte, bufPages*f.d.pageSize), lo: lo, hi: hi}
}

// Read fills p with the next bytes of the range; it returns 0 at the
// end. A transient fault error leaves the unread range untouched, so the
// same Read can be retried.
func (r *Reader) Read(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		if r.pos == r.end {
			ok, err := r.fill()
			if err != nil {
				return total, err
			}
			if !ok {
				break
			}
		}
		n := copy(p, r.buf[r.pos:r.end])
		r.pos += n
		total += n
		p = p[n:]
	}
	return total, nil
}

// ReadFull fills p entirely; ok is false at a clean end of range. A
// short read (range ends mid-record) also reports ok == false with a nil
// error — record framing above decides whether that is corruption.
func (r *Reader) ReadFull(p []byte) (bool, error) {
	n, err := r.Read(p)
	if err != nil {
		return false, err
	}
	return n == len(p), nil
}

func (r *Reader) fill() (bool, error) {
	if r.lo >= r.hi {
		return false, nil
	}
	if err := r.f.d.checkCancel(); err != nil {
		return false, err
	}
	if fp := r.f.d.FaultPolicy(); fp != nil {
		switch fp.onRead() {
		case readTransient:
			return false, &FaultError{Op: "read", File: r.f.name, Transient: true}
		case readLatency:
			r.f.d.chargeLatencySpike(r.f.name)
		}
	}
	want := int64(len(r.buf))
	if want > r.hi-r.lo {
		want = r.hi - r.lo
	}
	n := r.f.copyAt(r.buf[:want], r.lo)
	r.f.d.chargeRead(n)
	r.lo += int64(n)
	r.pos, r.end = 0, n
	return n > 0, nil
}

// Remaining returns how many bytes are left to read (buffered included).
func (r *Reader) Remaining() int64 { return (r.hi - r.lo) + int64(r.end-r.pos) }
