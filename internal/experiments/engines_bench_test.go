package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Engine records on the paper's circuits. One pass takes about a
// minute, so the cost ledger (ledger_test.go) pins their
// machine-independent counters and these benchmarks only produce
// wall-clock records. Run them with, for example,
//
//	go test -run '^$' -bench BenchmarkTableIIFaultSim -benchtime 1x -count 5 -cpu 1 ./internal/experiments/
//	go test -run '^$' -bench BenchmarkFig6ColdSpeculation -benchtime 1x -count 3 ./internal/experiments/

// tableIIPair synthesizes a Table II variant and speed-retimes it the
// way the experiment harness does.
func tableIIPair(tb testing.TB, v Variant) (orig, retimed *netlist.Circuit) {
	tb.Helper()
	c, err := v.Synthesize()
	if err != nil {
		tb.Fatalf("synthesize %s: %v", v.Name(), err)
	}
	pair, _, _, err := SpeedRetime(c, ForwardMoves(v.Name()))
	if err != nil {
		tb.Fatalf("retime %s: %v", v.Name(), err)
	}
	return pair.Original, pair.Retimed
}

// tableIIVectors is the fault-simulation stimulus for c: 512 uniformly
// random vectors from seed 1.
func tableIIVectors(c *netlist.Circuit) sim.Seq {
	rng := rand.New(rand.NewSource(1))
	seq := make(sim.Seq, 512)
	for t := range seq {
		vec := make(sim.Vec, len(c.Inputs))
		for j := range vec {
			vec[j] = logic.FromBool(rng.Intn(2) == 1)
		}
		seq[t] = vec
	}
	return seq
}

// BenchmarkTableIIFaultSim pits the event-driven production engine
// (fsim.Run) against the full-sweep oracle (fsim.RunSequential) on the
// 16 speed-retimed Table II circuits: collapsed faults, 512 uniformly
// random vectors. Every op checks the two detect the same faults.
func BenchmarkTableIIFaultSim(b *testing.B) {
	for _, v := range TableIIVariants() {
		_, c := tableIIPair(b, v)
		faults, _ := fault.Collapse(c)
		seq := tableIIVectors(c)
		want := fsim.RunSequential(c, faults, seq).Detected()
		for _, arm := range []struct {
			name string
			run  func(*netlist.Circuit, []fault.Fault, sim.Seq) *fsim.Result
		}{{"event", fsim.Run}, {"sweep", fsim.RunSequential}} {
			b.Run(v.Name()+"/"+arm.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if got := arm.run(c, faults, seq).Detected(); got != want {
						b.Fatalf("detected %d, oracle %d", got, want)
					}
				}
			})
		}
	}
}

// fig6Cold names the nine Table II variants whose Fig. 6 flow takes one
// to three seconds on one core (the e2e benchmark's fig6_cold set).
var fig6Cold = []string{
	"dk16.ji.sd", "pma.jo.sd",
	"s820.jc.sd", "s820.jc.sr", "s820.ji.sr", "s820.jo.sd", "s820.jo.sr",
	"s832.jc.sr", "s832.jo.sr",
}

// BenchmarkFig6ColdSpeculation runs default-option ATPG on the original
// side of the nine fig6_cold circuits at 1, 2 and 4 speculation
// workers; one op covers all nine. Every arm must reproduce the first
// arm's test sets and fault statuses byte for byte.
func BenchmarkFig6ColdSpeculation(b *testing.B) {
	type job struct {
		c      *netlist.Circuit
		faults []fault.Fault
	}
	var jobs []job
	for _, v := range TableIIVariants() {
		for _, name := range fig6Cold {
			if v.Name() == name {
				c, _ := tableIIPair(b, v)
				faults, _ := fault.Collapse(c)
				jobs = append(jobs, job{c, faults})
			}
		}
	}
	var ref []*atpg.Result
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			opt := atpg.DefaultOptions()
			opt.Workers = workers
			for i := 0; i < b.N; i++ {
				for k, j := range jobs {
					res := atpg.Run(j.c, j.faults, opt)
					if len(ref) < len(jobs) {
						ref = append(ref, res)
						continue
					}
					if !reflect.DeepEqual(res.TestSet, ref[k].TestSet) || !reflect.DeepEqual(res.Status, ref[k].Status) {
						b.Fatalf("%s: workers=%d output differs from the first arm", j.c.Name, workers)
					}
				}
			}
		})
	}
}
