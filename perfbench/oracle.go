package main

import (
	"fmt"
	"runtime"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/sweep"
)

// answer summarizes a join's result set independently of emission order:
// the pair count and the sum of a 64-bit mix of every pair. A dropped,
// duplicated or altered pair changes at least one of the two.
type answer struct {
	Pairs int64
	Sum   uint64
}

func (a *answer) add(p geom.Pair) {
	a.Pairs++
	a.Sum += mix64(mix64(p.R) ^ p.S)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// oracle computes the expected answer with a single in-memory trie sweep
// over copies of the inputs: no partitioning, no disk, no duplicate
// elimination, and a different sweep-line status than the list sweep
// PBSM joins its partitions with.
func oracle(R, S []geom.KPE) answer {
	rs := append([]geom.KPE(nil), R...)
	ss := append([]geom.KPE(nil), S...)
	var a answer
	sweep.New(sweep.TrieKind).Join(rs, ss, func(r, s geom.KPE) {
		a.add(geom.Pair{R: r.ID, S: s.ID})
	})
	return a
}

// outcome is one checked core.Join call.
type outcome struct {
	res   core.Result
	wall  time.Duration // call until the last pair is delivered
	first time.Duration // call until the first pair is delivered
	alloc uint64        // heap bytes allocated during the call
	got   answer
	err   error // join error, panic, or oracle mismatch
}

// runJoin calls core.Join once, times it, and checks its result set
// against want. A panic on the calling goroutine becomes an error; a
// panic in one of the join's own worker goroutines still ends the
// process, which fails the run.
func runJoin(R, S []geom.KPE, cfg core.Config, want answer) (o outcome) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				o.err = fmt.Errorf("join panicked: %v", r)
			}
		}()
		o.res, o.err = core.Join(R, S, cfg, func(p geom.Pair) {
			if o.got.Pairs == 0 {
				o.first = time.Since(t0)
			}
			o.got.add(p)
		})
	}()
	o.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	o.alloc = m1.TotalAlloc - m0.TotalAlloc
	if o.err == nil {
		o.err = check(o.got, want)
	}
	return o
}

// check is the oracle gate: nil when got is exactly the expected answer.
func check(got, want answer) error {
	if got != want {
		return fmt.Errorf("oracle mismatch: got %d pairs (sum %#x), want %d (sum %#x)",
			got.Pairs, got.Sum, want.Pairs, want.Sum)
	}
	return nil
}
