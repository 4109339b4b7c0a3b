package main

import (
	"fmt"
	"time"

	"spatialjoin/internal/bench"
	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/s3j"
)

// workload is one named set of inputs and the join configuration it runs.
// Every workload joins with Parallel 2 (the two CPUs of the reference
// host), in one process without shards, on a fresh simulated disk whose
// per-request latency stays off: device time is reported through the cost
// model (Result.IO.CostUnits, Result.Total), because sleeping per request
// would measure the host timer instead.
type workload struct {
	name, why string
	inputs    func(seed int64) (R, S []geom.KPE)
	method    core.Method
	memFrac   float64 // memory budget as a share of the input bytes
}

// joinDeadline bounds every join the benchmark runs; one that takes longer
// fails with DeadlineExceeded and counts as failed instead of hanging the
// run. It is well above the slowest workload's join on the reference host.
const joinDeadline = 30 * time.Second

var workloads = []workload{
	{
		name:    "la-pbsm",
		why:     "paper J1 (LA_RR x LA_ST-like, 129k x 131k), PBSM RPM at the 2.5 MB budget: 3 partitions on disk, no repartitioning. Every workload: closed loop, 1 caller, Parallel 2, 1 process",
		inputs:  laInputs,
		method:  core.PBSM,
		memFrac: 0.48,
	},
	{
		name:    "la-inmem",
		why:     "J1 with memory 1.5x input: one partition, no I/O, all plane sweep; disk-layer changes must leave it flat. diskio latency is off everywhere; device time is the cost model's",
		inputs:  laInputs,
		method:  core.PBSM,
		memFrac: 1.5,
	},
	{
		name:    "cal-s3j",
		why:     "CAL_ST-like self-join at 15% scale (283k), S3J replicate at 0.13x input: external sort, sfc levels and level-file scan; no PBSM",
		inputs:  calInputs,
		method:  core.S3J,
		memFrac: 0.13,
	},
	{
		name:    "gauss-skew",
		why:     "two clustered 100k Gaussian sets, PBSM RPM at 0.1x input: 16 repartitions and 1.3M pairs per join (skew, result delivery). Shard and network transports are out of scope",
		inputs:  gaussInputs,
		method:  core.PBSM,
		memFrac: 0.1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

func laInputs(seed int64) (R, S []geom.KPE) {
	return bench.NewSuite(1, 0, seed).Inputs(bench.J1)
}

func calInputs(seed int64) (R, S []geom.KPE) {
	return bench.NewSuite(0, 0.15, seed).Inputs(bench.J5)
}

// gaussEdge gives about 1.3M result pairs for two 100k sets.
const gaussEdge = 0.002

func gaussInputs(seed int64) (R, S []geom.KPE) {
	return datagen.Gaussian(2*seed, 100000, gaussEdge), datagen.Gaussian(2*seed+1, 100000, gaussEdge)
}

// config returns the join configuration of w over R and S with the given
// method, which is w's own except for the traced run's cross-method probe.
func (w workload) config(R, S []geom.KPE, m core.Method) core.Config {
	return core.Config{
		Method:   m,
		Memory:   bench.MemFrac(R, S, w.memFrac),
		Parallel: 2,
		S3JMode:  s3j.ModeReplicate,
		Transfer: bench.DefaultTransfer,
		Deadline: joinDeadline,
	}
}
