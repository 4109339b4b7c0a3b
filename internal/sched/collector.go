package sched

import (
	"sync"

	"spatialjoin/internal/geom"
)

// chunkPairs is the size of one buffer chunk. A unit's buffered pairs
// live in a list of fixed-size chunks instead of one growing slice, so
// buffering never re-copies what it already holds, and a flushed chunk
// is recycled for the next unit that buffers.
const chunkPairs = 2048

// maxFreeChunks caps the recycled chunks kept for reuse, so one burst
// of buffering does not stay resident for the rest of the run.
const maxFreeChunks = 32

// Collector restores deterministic emission order to a parallel run:
// result pairs of unit 0 stream straight through, pairs of later units
// are buffered until every earlier unit has finished, and then flush in
// unit order. The delivered sequence is therefore EXACTLY the sequence
// a serial run of the same units would emit, at the cost of buffering
// the results of units that finish ahead of the emission head.
//
// The sink is only ever invoked with the collector's mutex held, so it
// needs no synchronization of its own — but it must not call back into
// the Collector, and it must not take a lock that an Emit caller holds.
type Collector struct {
	mu   sync.Mutex
	sink func(geom.Pair)
	buf  [][][]geom.Pair // guarded by mu; per unit, its chunks in emission order
	free [][]geom.Pair   // guarded by mu; flushed chunks, emptied, for reuse
	done []bool          // guarded by mu
	head int             // guarded by mu; first unit not yet finished; its pairs stream directly
}

// NewCollector creates a collector over n units delivering to sink.
func NewCollector(n int, sink func(geom.Pair)) *Collector {
	return &Collector{
		sink: sink,
		buf:  make([][][]geom.Pair, n),
		free: make([][]geom.Pair, 0, maxFreeChunks),
		done: make([]bool, n),
	}
}

// Emit delivers one pair of unit i: streamed when i is the emission
// head, buffered otherwise. Safe for concurrent use.
func (c *Collector) Emit(i int, p geom.Pair) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i == c.head {
		c.sink(p)
		return
	}
	chunks := c.buf[i]
	last := len(chunks) - 1
	if last < 0 || len(chunks[last]) == chunkPairs {
		chunks = append(chunks, c.chunkLocked())
		last++
		c.buf[i] = chunks
	}
	chunks[last] = append(chunks[last], p)
}

// chunkLocked returns an empty chunk, recycled when one is free; c.mu
// must be held.
func (c *Collector) chunkLocked() []geom.Pair {
	if n := len(c.free); n > 0 {
		ch := c.free[n-1]
		c.free = c.free[:n-1]
		return ch
	}
	return make([]geom.Pair, 0, chunkPairs)
}

// Done marks unit i finished. When i is the emission head, the head
// advances over every finished unit, flushing each one's buffer — and
// the first unfinished unit it lands on streams from then on. Each unit
// must call Done exactly once, after its last Emit.
func (c *Collector) Done(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[i] = true
	for c.head < len(c.done) && c.done[c.head] {
		c.head++
		if c.head == len(c.buf) {
			break
		}
		for _, ch := range c.buf[c.head] {
			for _, p := range ch {
				c.sink(p)
			}
			if len(c.free) < maxFreeChunks {
				c.free = append(c.free, ch[:0])
			}
		}
		c.buf[c.head] = nil
	}
}
