package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// The cost ledger pins the machine-independent cost of a fixed set of
// workloads: gate evaluations, backtracks, fault-simulation work and
// the sizes of what each run produces. These counters repeat exactly
// for a given seed on any host and at any GOMAXPROCS, so an algorithmic
// regression (or an accidental behavior change) fails here however
// noisy the machine's wall clock is. A deliberate change updates the
// literals below -- the failure message prints the whole table ready
// to paste -- and says so in CHANGES.md.
//
// Wall-clock time is judged elsewhere (benchmarks/e2e -compare over
// alternating pairs), and allocs/op is left to the AllocsPerRun gates:
// both move with the host and the Go toolchain.

// ledgerRow is one pinned counter of one workload.
type ledgerRow struct {
	workload string
	counter  string
	want     int64
}

var costLedger = []ledgerRow{
	{"dropping", "Effort.Evals", 30014416},
	{"dropping", "Effort.Backtracks", 4948},
	{"dropping", "FsimStats.Evals", 5024456},
	{"dropping", "FsimStats.Drops", 2572},
	{"dropping", "detected", 53},
	{"dropping", "redundant", 24},
	{"dropping", "aborted", 2495},
	{"dropping", "len(TestSet)", 192},
	{"fsim/dk16.ji.sd", "Detected", 1115},
	{"fsim/dk16.ji.sd", "Stats.Evals", 824250},
	{"fsim/dk16.ji.sd", "Stats.Drops", 1115},
	{"fsim/dk16.ji.sd", "Stats.Cycles", 13824},
	{"fsim/pma.jo.sd", "Detected", 1342},
	{"fsim/pma.jo.sd", "Stats.Evals", 1147274},
	{"fsim/pma.jo.sd", "Stats.Drops", 1342},
	{"fsim/pma.jo.sd", "Stats.Cycles", 14139},
	{"fsim/s510.jc.sd", "Detected", 1881},
	{"fsim/s510.jc.sd", "Stats.Evals", 1933416},
	{"fsim/s510.jc.sd", "Stats.Drops", 1881},
	{"fsim/s510.jc.sd", "Stats.Cycles", 27136},
	{"fsim/s510.jc.sr", "Detected", 2320},
	{"fsim/s510.jc.sr", "Stats.Evals", 3175821},
	{"fsim/s510.jc.sr", "Stats.Drops", 2320},
	{"fsim/s510.jc.sr", "Stats.Cycles", 28672},
	{"fsim/s510.ji.sd", "Detected", 1868},
	{"fsim/s510.ji.sd", "Stats.Evals", 1898988},
	{"fsim/s510.ji.sd", "Stats.Drops", 1868},
	{"fsim/s510.ji.sd", "Stats.Cycles", 27136},
	{"fsim/s510.ji.sr", "Detected", 2318},
	{"fsim/s510.ji.sr", "Stats.Evals", 3229223},
	{"fsim/s510.ji.sr", "Stats.Drops", 2318},
	{"fsim/s510.ji.sr", "Stats.Cycles", 28672},
	{"fsim/s510.jo.sr", "Detected", 2304},
	{"fsim/s510.jo.sr", "Stats.Evals", 4009167},
	{"fsim/s510.jo.sr", "Stats.Drops", 2304},
	{"fsim/s510.jo.sr", "Stats.Cycles", 28160},
	{"fsim/s820.jc.sd", "Detected", 1935},
	{"fsim/s820.jc.sd", "Stats.Evals", 1733855},
	{"fsim/s820.jc.sd", "Stats.Drops", 1935},
	{"fsim/s820.jc.sd", "Stats.Cycles", 18648},
	{"fsim/s820.jc.sr", "Detected", 2010},
	{"fsim/s820.jc.sr", "Stats.Evals", 2429888},
	{"fsim/s820.jc.sr", "Stats.Drops", 2010},
	{"fsim/s820.jc.sr", "Stats.Cycles", 19160},
	{"fsim/s820.ji.sr", "Detected", 1991},
	{"fsim/s820.ji.sr", "Stats.Evals", 2138247},
	{"fsim/s820.ji.sr", "Stats.Drops", 1991},
	{"fsim/s820.ji.sr", "Stats.Cycles", 19160},
	{"fsim/s820.jo.sd", "Detected", 1927},
	{"fsim/s820.jo.sd", "Stats.Evals", 1373102},
	{"fsim/s820.jo.sd", "Stats.Drops", 1927},
	{"fsim/s820.jo.sd", "Stats.Cycles", 18648},
	{"fsim/s820.jo.sr", "Detected", 2006},
	{"fsim/s820.jo.sr", "Stats.Evals", 2183898},
	{"fsim/s820.jo.sr", "Stats.Drops", 2006},
	{"fsim/s820.jo.sr", "Stats.Cycles", 19160},
	{"fsim/s832.jc.sr", "Detected", 1967},
	{"fsim/s832.jc.sr", "Stats.Evals", 2235411},
	{"fsim/s832.jc.sr", "Stats.Drops", 1967},
	{"fsim/s832.jc.sr", "Stats.Cycles", 19446},
	{"fsim/s832.jo.sr", "Detected", 1977},
	{"fsim/s832.jo.sr", "Stats.Evals", 2255776},
	{"fsim/s832.jo.sr", "Stats.Drops", 1977},
	{"fsim/s832.jo.sr", "Stats.Cycles", 19446},
	{"fsim/scf.ji.sd", "Detected", 5059},
	{"fsim/scf.ji.sd", "Stats.Evals", 8836472},
	{"fsim/scf.ji.sd", "Stats.Drops", 5059},
	{"fsim/scf.ji.sd", "Stats.Cycles", 116175},
	{"fsim/scf.jo.sd", "Detected", 5300},
	{"fsim/scf.jo.sd", "Stats.Evals", 10793435},
	{"fsim/scf.jo.sd", "Stats.Drops", 5300},
	{"fsim/scf.jo.sd", "Stats.Cycles", 116237},
	{"fig6/dk16.ji.sd", "EasyATPG.Effort.Evals", 26675590},
	{"fig6/dk16.ji.sd", "EasyATPG.Effort.Backtracks", 4158},
	{"fig6/dk16.ji.sd", "Prefix", 0},
	{"fig6/dk16.ji.sd", "len(Derived)", 2822},
	{"fig6/dk16.ji.sd", "ImplResult.Detected()", 1589},
	{"fig6/dk16.ji.sd", "ImplResult.Stats.Evals", 4297002},
	{"fig6/s820.jo.sd", "EasyATPG.Effort.Evals", 33153454},
	{"fig6/s820.jo.sd", "EasyATPG.Effort.Backtracks", 5038},
	{"fig6/s820.jo.sd", "Prefix", 0},
	{"fig6/s820.jo.sd", "len(Derived)", 1920},
	{"fig6/s820.jo.sd", "ImplResult.Detected()", 2231},
	{"fig6/s820.jo.sd", "ImplResult.Stats.Evals", 4817771},
	{"fig6/s510.jc.sd", "EasyATPG.Effort.Evals", 87956750},
	{"fig6/s510.jc.sd", "EasyATPG.Effort.Backtracks", 6146},
	{"fig6/s510.jc.sd", "Prefix", 1},
	{"fig6/s510.jc.sd", "len(Derived)", 3329},
	{"fig6/s510.jc.sd", "ImplResult.Detected()", 3219},
	{"fig6/s510.jc.sd", "ImplResult.Stats.Evals", 12034422},
	{"fig6/scf.ji.sd", "EasyATPG.Effort.Evals", 3011694592},
	{"fig6/scf.ji.sd", "EasyATPG.Effort.Backtracks", 0},
	{"fig6/scf.ji.sd", "Prefix", 0},
	{"fig6/scf.ji.sd", "len(Derived)", 4736},
	{"fig6/scf.ji.sd", "ImplResult.Detected()", 12787},
	{"fig6/scf.ji.sd", "ImplResult.Stats.Evals", 83547401},
}

// ledgerDropOptions is BenchmarkATPGWithDropping's option set
// (internal/atpg benchDropOptions) with every field spelled out, so a
// change to atpg.DefaultOptions does not move the pinned counters.
func ledgerDropOptions() atpg.Options {
	return atpg.Options{
		MaxFrames:         3,
		MaxBacktracks:     10,
		MaxEvalsPerFault:  50_000,
		MaxEvalsTotal:     30_000_000,
		GuidedBacktrace:   true,
		FillValue:         logic.Zero,
		RandomPhase:       true,
		RandomLength:      64,
		RandomCount:       16,
		RandomSeed:        1,
		IdentifyRedundant: true,
		SyncSeed:          true,
	}
}

// ledgerDropping runs BenchmarkATPGWithDropping's workload: a seed-2
// random circuit and its full fault universe.
func ledgerDropping() []ledgerRow {
	rng := rand.New(rand.NewSource(2))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 8, Outputs: 8, Gates: 400, DFFs: 24, MaxFanin: 4,
	})
	res := atpg.Run(c, fault.Universe(c), ledgerDropOptions())
	det, red, ab := res.Counts()
	const w = "dropping"
	return []ledgerRow{
		{w, "Effort.Evals", res.Effort.Evals},
		{w, "Effort.Backtracks", res.Effort.Backtracks},
		{w, "FsimStats.Evals", res.FsimStats.Evals},
		{w, "FsimStats.Drops", res.FsimStats.Drops},
		{w, "detected", int64(det)},
		{w, "redundant", int64(red)},
		{w, "aborted", int64(ab)},
		{w, "len(TestSet)", int64(len(res.TestSet))},
	}
}

// ledgerFaultSim runs BenchmarkTableIIFaultSim's workload on one
// variant: the speed-retimed circuit, its collapsed faults and 512
// random vectors from seed 1.
func ledgerFaultSim(t *testing.T, v Variant) []ledgerRow {
	_, c := tableIIPair(t, v)
	faults, _ := fault.Collapse(c)
	res := fsim.Run(c, faults, tableIIVectors(c))
	w := "fsim/" + v.Name()
	return []ledgerRow{
		{w, "Detected", int64(res.Detected())},
		{w, "Stats.Evals", res.Stats.Evals},
		{w, "Stats.Drops", res.Stats.Drops},
		{w, "Stats.Cycles", res.Stats.Cycles},
	}
}

// ledgerFig6Circuits are the four circuits of the e2e benchmark's
// fig6_hot workload.
var ledgerFig6Circuits = []string{"dk16.ji.sd", "s820.jo.sd", "s510.jc.sd", "scf.ji.sd"}

// ledgerFig6 runs the Fig. 6 flow with default options on one variant's
// speed-retimed circuit, parsed from its bench text the way the job
// service parses a derive_tests request.
func ledgerFig6(t *testing.T, v Variant) []ledgerRow {
	_, retimed := tableIIPair(t, v)
	c, err := netlist.ParseBenchString("job", netlist.BenchString(retimed))
	if err != nil {
		t.Fatalf("parse %s: %v", v.Name(), err)
	}
	flow, err := core.Fig6Flow(c, atpg.DefaultOptions())
	if err != nil {
		t.Fatalf("Fig6Flow %s: %v", v.Name(), err)
	}
	w := "fig6/" + v.Name()
	return []ledgerRow{
		{w, "EasyATPG.Effort.Evals", flow.EasyATPG.Effort.Evals},
		{w, "EasyATPG.Effort.Backtracks", flow.EasyATPG.Effort.Backtracks},
		{w, "Prefix", int64(flow.Pair.PrefixLengthTests())},
		{w, "len(Derived)", int64(len(flow.Derived))},
		{w, "ImplResult.Detected()", int64(flow.ImplResult.Detected())},
		{w, "ImplResult.Stats.Evals", flow.ImplResult.Stats.Evals},
	}
}

// ledgerShort names the workloads -short keeps: the two cheapest
// fault simulations, about 2 s together under the race detector, where
// each Fig. 6 flow or the dropping run takes half a minute or more.
var ledgerShort = map[string]bool{"s820.jc.sd": true, "s820.jo.sd": true}

// measureLedger runs every ledger workload, or under -short only the
// ledgerShort ones; a skipped workload's rows are absent from the result.
func measureLedger(t *testing.T) []ledgerRow {
	short := testing.Short()
	var got []ledgerRow
	if !short {
		got = append(got, ledgerDropping()...)
	}
	variants := TableIIVariants()
	for _, v := range variants {
		if !short || ledgerShort[v.Name()] {
			got = append(got, ledgerFaultSim(t, v)...)
		}
	}
	if short {
		return got
	}
	for _, name := range ledgerFig6Circuits {
		for _, v := range variants {
			if v.Name() == name {
				got = append(got, ledgerFig6(t, v)...)
			}
		}
	}
	return got
}

// TestCostLedger compares every measured counter with its pinned
// literal. On any mismatch it names each differing row and prints the
// whole table, measured values in place of pinned ones, as Go source.
func TestCostLedger(t *testing.T) {
	got := measureLedger(t)
	type key struct{ workload, counter string }
	measured := make(map[key]int64, len(got))
	for _, r := range got {
		measured[key{r.workload, r.counter}] = r.want
	}
	pinned := make(map[key]bool, len(costLedger))
	table := make([]ledgerRow, 0, len(costLedger))
	for _, r := range costLedger {
		k := key{r.workload, r.counter}
		pinned[k] = true
		v, ok := measured[k]
		if !ok {
			table = append(table, r) // workload skipped under -short
			continue
		}
		if v != r.want {
			t.Errorf("%s %s = %d, ledger pins %d", r.workload, r.counter, v, r.want)
		}
		table = append(table, ledgerRow{r.workload, r.counter, v})
	}
	for _, r := range got {
		if !pinned[key{r.workload, r.counter}] {
			t.Errorf("%s %s = %d is not in the ledger", r.workload, r.counter, r.want)
			table = append(table, r)
		}
	}
	if t.Failed() {
		var b strings.Builder
		b.WriteString("var costLedger = []ledgerRow{\n")
		for _, r := range table {
			fmt.Fprintf(&b, "\t{%q, %q, %d},\n", r.workload, r.counter, r.want)
		}
		b.WriteString("}\n")
		t.Logf("ledger with measured values:\n%s", b.String())
	}
}
