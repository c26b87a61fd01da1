package atpg

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// benchDropOptions weights the run toward the fault-dropping phases:
// a substantial random phase over a >=1000-fault list, with the
// deterministic budget capped so PODEM time does not drown out the
// grading cost being measured.
func benchDropOptions() Options {
	opt := DefaultOptions()
	opt.RandomLength = 64
	opt.RandomCount = 16
	opt.MaxFrames = 3
	opt.MaxBacktracks = 10
	opt.MaxEvalsPerFault = 50_000
	opt.MaxEvalsTotal = 30_000_000
	opt.FillValue = logic.Zero
	return opt
}

func benchDropWorkload(tb testing.TB) (*netlist.Circuit, []fault.Fault) {
	tb.Helper()
	rng := rand.New(rand.NewSource(2))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 8, Outputs: 8, Gates: 400, DFFs: 24, MaxFanin: 4,
	})
	faults := fault.Universe(c)
	if len(faults) < 1000 {
		tb.Fatalf("workload has only %d faults", len(faults))
	}
	return c, faults
}

// BenchmarkATPGWithDropping measures the generator on the dropping
// workload through the production grading path: one persistent
// event-driven simulator reused across every generated sequence. The
// sub-benchmark keeps its historical name so recorded baselines still
// match it.
func BenchmarkATPGWithDropping(b *testing.B) {
	c, faults := benchDropWorkload(b)
	b.Run("incremental", func(b *testing.B) {
		opt := benchDropOptions()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Run(c, faults, opt)
		}
	})
}

// BenchmarkATPGCheckpointOverhead measures the durability tax: the
// tracked dropping workload with checkpointing off versus writing an
// atomic checkpoint every 64 decided faults (the default cadence). The
// decision log is appended incrementally and the write is one encode +
// tmp/rename per cadence, so the overhead budget is <=5%.
func BenchmarkATPGCheckpointOverhead(b *testing.B) {
	c, faults := benchDropWorkload(b)
	b.Run("off", func(b *testing.B) {
		opt := benchDropOptions()
		for i := 0; i < b.N; i++ {
			Run(c, faults, opt)
		}
	})
	b.Run("every-64", func(b *testing.B) {
		opt := benchDropOptions()
		opt.Checkpoint.Path = filepath.Join(b.TempDir(), "bench.ckpt")
		opt.Checkpoint.Every = DefaultCheckpointEvery
		for i := 0; i < b.N; i++ {
			Run(c, faults, opt)
		}
	})
}

// BenchmarkATPGParallel pits the serial deterministic phase against the
// fault-sharded speculative engine at increasing worker counts. The
// workload weights toward PODEM (long random-phase disabled, generous
// per-fault budget) because that is what the shards parallelize; the
// merge-grader cost is identical in every arm. Speedup tracks physical
// cores -- on a single-core host the parallel arms only measure the
// speculation overhead.
func BenchmarkATPGParallel(b *testing.B) {
	c, faults := benchDropWorkload(b)
	opt := benchDropOptions()
	opt.RandomCount = 4
	opt.MaxBacktracks = 20
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Run(c, faults, opt)
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			opt := opt
			opt.Workers = workers
			for i := 0; i < b.N; i++ {
				Run(c, faults, opt)
			}
		})
	}
}
