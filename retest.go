// Package retest is the public facade of the library: test set
// preservation of retimed circuits, after El-Maleh, Marchok, Rajski and
// Maly, "On Test Set Preservation of Retimed Circuits", DAC 1995.
//
// The library decomposes into focused subsystems under internal/ --
// netlist modeling, 3-valued and fault simulation, Leiserson-Saxe
// retiming, state-transition-graph analysis, FSM synthesis, and a
// sequential structural ATPG -- and this package re-exports the
// workflow a user needs:
//
//	c, _ := retest.ParseBenchFile("design.bench")
//	pair, oldP, newP, _ := retest.MinPeriodPair(c)   // performance retiming
//	res := retest.ATPG(pair.Original, retest.CollapsedFaults(pair.Original), retest.DefaultATPGOptions())
//	derived := pair.DeriveTestSet(res.TestSet, retest.FillZeros, 0)
//	cov := retest.FaultSimulate(pair.Retimed, retest.CollapsedFaults(pair.Retimed), derived)
//
// or, in the reverse (Fig. 6) direction, retest.RetimeForTestability
// generates tests on a register-minimized version of an implemented
// circuit and maps them back with the pre-determined prefix.
package retest

import (
	"context"
	"io"
	"os"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/fsmgen"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/resultcache"
	"repro/internal/retime"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/verify"
)

// Core circuit and stimulus types.
type (
	// Circuit is a gate-level synchronous sequential circuit.
	Circuit = netlist.Circuit
	// Vec is one input or output vector; Seq is a vector sequence.
	Vec = sim.Vec
	Seq = sim.Seq
	// Fault is a single stuck-at fault.
	Fault = fault.Fault
	// RetimedPair couples a circuit with a retimed version and carries
	// the fault correspondence and prefix lengths of the paper.
	RetimedPair = core.RetimedPair
	// PreservationReport is the outcome of a Theorem 4 check.
	PreservationReport = core.PreservationReport
	// ATPGOptions tunes the sequential test generator.
	ATPGOptions = atpg.Options
	// ATPGResult is a test-generation outcome (tests, coverage, effort).
	ATPGResult = atpg.Result
	// FaultSimResult is a fault-simulation outcome.
	FaultSimResult = fsim.Result
	// FaultSimulator is the persistent, event-driven, fault-dropping
	// simulator behind FaultSimulate; use it directly to carry state
	// and dropped faults across sequences.
	FaultSimulator = fsim.Simulator
	// FaultSimStats counts fault-simulation work (cycles, gate
	// evaluations, drops, repacks).
	FaultSimStats = fsim.Stats
	// ATPGParallelStats reports the speculation bookkeeping of a
	// fault-sharded ATPG run (ATPGOptions.Workers > 1).
	ATPGParallelStats = atpg.ParallelStats
	// ATPGCheckpoint is a durable snapshot of an ATPG run's decision
	// log; resuming from one reproduces the uninterrupted run's result
	// byte for byte.
	ATPGCheckpoint = atpg.Checkpoint
	// ATPGCheckpointConfig wires periodic checkpoint writes (and a
	// resume source) into ATPGOptions.Checkpoint.
	ATPGCheckpointConfig = atpg.CheckpointConfig
	// ResultCache is a content-addressed store of finished results,
	// keyed by the same (circuit, fault list, options) identity hashes
	// that bind checkpoints: a byte-bounded in-memory LRU, an optional
	// durable tier of checksummed entry files, and single-flight dedup
	// of concurrent identical computations.
	ResultCache = resultcache.Cache
	// ResultCacheConfig tunes a ResultCache (memory budget, durable
	// directory, metrics registry, breaker log hook).
	ResultCacheConfig = resultcache.Config
	// ResultCacheKey names one cached result.
	ResultCacheKey = resultcache.Key
	// CacheSource reports where a cached answer came from: "miss",
	// "hit" (memory), "hit-disk", or "shared" (a concurrent identical
	// computation's single flight).
	CacheSource = resultcache.Source
	// Fig6Result is the outcome of the retime-for-testability flow.
	Fig6Result = core.Fig6Result
	// PrefixFill selects how arbitrary prefix vectors are filled.
	PrefixFill = core.PrefixFill
	// FSM is a KISS2 finite-state machine.
	FSM = fsmgen.FSM
	// RetimingGraph is the Leiserson-Saxe graph of a circuit.
	RetimingGraph = retime.Graph
)

// Prefix fill modes (Theorem 4 permits arbitrary vectors).
const (
	FillZeros  = core.FillZeros
	FillOnes   = core.FillOnes
	FillRandom = core.FillRandom
)

// ParseBench reads a circuit in ISCAS-89 bench format.
func ParseBench(name string, r io.Reader) (*Circuit, error) { return netlist.ParseBench(name, r) }

// ParseBenchFile reads a bench file from disk.
func ParseBenchFile(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netlist.ParseBench(path, f)
}

// WriteBench writes a circuit in bench format.
func WriteBench(w io.Writer, c *Circuit) error { return netlist.WriteBench(w, c) }

// ParseSeq parses comma-separated vector literals such as "001,000".
func ParseSeq(s string) Seq { return sim.ParseSeq(s) }

// CollapsedFaults returns one representative per structural fault
// equivalence class.
func CollapsedFaults(c *Circuit) []Fault {
	reps, _ := fault.Collapse(c)
	return reps
}

// MinPeriodPair retimes the circuit for minimum clock period and
// returns the pair plus the periods before and after -- the
// performance-driven direction whose test cost Table II measures.
func MinPeriodPair(c *Circuit) (*RetimedPair, int, int, error) { return core.MinPeriodPair(c) }

// MinPeriodPairContext is MinPeriodPair with cooperative cancellation:
// the solver checks ctx between FEAS rounds and stops early with ctx's
// error.
func MinPeriodPairContext(ctx context.Context, c *Circuit) (*RetimedPair, int, int, error) {
	return core.MinPeriodPairContext(ctx, c)
}

// BuildPair materializes both sides of a retiming over a graph
// obtained from Graph.
func BuildPair(g *RetimingGraph, r retime.Retiming, origName, retName string) (*RetimedPair, error) {
	return core.BuildPair(g, r, origName, retName)
}

// Graph converts a circuit to its retiming graph for custom retimings.
func Graph(c *Circuit) *RetimingGraph { return retime.FromCircuit(c) }

// DefaultATPGOptions returns the generator settings the experiment
// harness uses.
func DefaultATPGOptions() ATPGOptions { return atpg.DefaultOptions() }

// ATPG runs the sequential structural test generator. Set
// opt.Workers > 1 to speculate PODEM searches on that many shard
// workers ahead of a deterministic merge: the result is byte-identical
// at every worker count (modulo wall-clock time and the Parallel stats
// block) while the deterministic phase scales with physical cores.
func ATPG(c *Circuit, faults []Fault, opt ATPGOptions) *ATPGResult { return atpg.Run(c, faults, opt) }

// ATPGContext is ATPG with cooperative cancellation: the generator
// checks ctx every few hundred PODEM decisions and, when interrupted,
// returns the tests found so far along with ctx's error. With an
// uncancelled context the result is byte-identical to ATPG.
func ATPGContext(ctx context.Context, c *Circuit, faults []Fault, opt ATPGOptions) (*ATPGResult, error) {
	return atpg.RunContext(ctx, c, faults, opt)
}

// LoadATPGCheckpoint reads and decodes a checkpoint file; the error
// distinguishes a missing file (os.ErrNotExist) from a corrupt or
// version-skewed one (atpg.ErrCheckpointCorrupt/ErrCheckpointVersion).
func LoadATPGCheckpoint(path string) (*ATPGCheckpoint, error) { return atpg.LoadCheckpoint(path) }

// ATPGWithCheckpoint is ATPGContext with durable crash recovery: the
// run writes an atomic checkpoint to path every `every` decided faults
// (0 selects the default cadence) and, when path already holds a
// usable checkpoint of the same run, resumes from it instead of
// starting over. Killed anywhere and re-invoked, it converges on the
// byte-identical result of an uninterrupted run; an unusable
// checkpoint (corrupt, version skew, different circuit, fault list or
// options, or a log that diverges during replay) is discarded and the
// run starts clean.
func ATPGWithCheckpoint(ctx context.Context, c *Circuit, faults []Fault, opt ATPGOptions, path string, every int) (*ATPGResult, error) {
	opt.Checkpoint.Path = path
	opt.Checkpoint.Every = every
	return atpg.RunContext(ctx, c, faults, opt)
}

// NewResultCache creates a content-addressed result cache. The zero
// config is usable (64 MiB in-memory budget, no durable tier); set
// Dir for persistence across processes, in which case Sweep() at
// startup collects crash residue.
func NewResultCache(cfg ResultCacheConfig) *ResultCache { return resultcache.New(cfg) }

// ATPGCacheKey returns the content-addressed identity of an ATPG run:
// equal keys guarantee byte-identical results. Worker count and
// checkpoint configuration do not contribute (both are
// result-neutral).
func ATPGCacheKey(c *Circuit, faults []Fault, opt ATPGOptions) ResultCacheKey {
	return atpg.CacheKey(c, faults, opt)
}

// ATPGCached is ATPGContext behind a result cache: an identical prior
// run is decoded from its stored payload (source "hit" or "hit-disk",
// with Effort.Time zero and Parallel nil -- no generation happened), a
// miss runs the generator and stores the result. A nil cache degrades
// to a plain run. Cancellation still returns partial results with
// ctx's error; partial results are never cached.
func ATPGCached(ctx context.Context, cache *ResultCache, c *Circuit, faults []Fault, opt ATPGOptions) (*ATPGResult, CacheSource, error) {
	return atpg.CachedRun(ctx, cache, c, faults, opt)
}

// FaultSimulate fault-simulates a test sequence from the all-X initial
// state and reports detections.
func FaultSimulate(c *Circuit, faults []Fault, seq Seq) *FaultSimResult {
	return fsim.Run(c, faults, seq)
}

// FaultSimulateContext is FaultSimulate with cooperative cancellation:
// the simulator checks ctx every 128-cycle block and, when
// interrupted, reports coverage over the prefix it processed along
// with ctx's error.
func FaultSimulateContext(ctx context.Context, c *Circuit, faults []Fault, seq Seq) (*FaultSimResult, error) {
	return fsim.RunContext(ctx, c, faults, seq)
}

// NewFaultSimulator creates a persistent fault simulator over the
// fault list, for incremental Simulate/Drop workflows (the ATPG
// fault-dropping pattern).
func NewFaultSimulator(c *Circuit, faults []Fault) *FaultSimulator {
	return fsim.NewSimulator(c, faults)
}

// CoverageCurve returns cumulative fault detections after each vector.
func CoverageCurve(c *Circuit, faults []Fault, seq Seq) []int {
	return fsim.CoverageCurve(c, faults, seq)
}

// CompactTests drops test subsequences that contribute no detections,
// returning the compacted list (see atpg.CompactTests).
func CompactTests(c *Circuit, faults []Fault, tests []Seq) []Seq {
	return atpg.CompactTests(c, faults, tests)
}

// RetimeForTestability runs the paper's Fig. 6 technique on an
// implemented circuit: ATPG on a register-minimized retiming, then a
// derived (prefixed) test set for the implementation.
func RetimeForTestability(impl *Circuit, opt ATPGOptions) (*Fig6Result, error) {
	return core.Fig6Flow(impl, opt)
}

// RetimeForTestabilityContext is RetimeForTestability with cooperative
// cancellation threaded through every stage (flow solve, ATPG, fault
// simulation).
func RetimeForTestabilityContext(ctx context.Context, impl *Circuit, opt ATPGOptions) (*Fig6Result, error) {
	return core.Fig6FlowContext(ctx, impl, opt)
}

// VerifyRetiming checks that retimed behaves as a retiming of original:
// exact state-transition-graph equivalence when both machines are small
// enough, bounded 3-valued co-simulation otherwise. lagBound is the
// maximum number of atomic moves of the retiming.
func VerifyRetiming(original, retimed *Circuit, lagBound int) (*verify.Result, error) {
	return verify.Retiming(original, retimed, lagBound)
}

// ScanATPG generates full-scan (combinational) tests -- the
// design-for-testability baseline whose silicon cost the paper's
// technique avoids.
func ScanATPG(c *Circuit, faults []Fault, opt ATPGOptions) *atpg.ScanResult {
	return atpg.RunScan(c, faults, opt)
}

// GeneticATPG runs the simulation-based (GATEST-style) sequential test
// generator, the structural engine's classical alternative.
func GeneticATPG(c *Circuit, faults []Fault, opt atpg.GeneticOptions) *ATPGResult {
	return atpg.RunGenetic(c, faults, opt)
}

// Job service types: the concurrent retime-for-test service cmd/servd
// exposes over HTTP, re-exported for embedding in other processes.
type (
	// JobService runs typed retime-for-test jobs on a bounded worker
	// pool with per-job deadlines and an in-memory status store.
	JobService = service.Service
	// JobServiceConfig tunes the pool, the queue and the default
	// per-job timeout.
	JobServiceConfig = service.Config
	// JobRequest describes one job; circuits travel as bench text.
	JobRequest = service.Request
	// JobView is an immutable job snapshot (status, result, timings).
	JobView = service.View
	// JobKind selects a job's pipeline.
	JobKind = service.Kind
	// MetricsRegistry is the atomic counter/gauge/histogram registry
	// the job service and the result cache record into.
	MetricsRegistry = metrics.Registry
)

// Job kinds: the individual pipeline pieces plus the paper's full
// Fig. 6 flow as one job.
const (
	JobRetime      = service.KindRetime
	JobATPG        = service.KindATPG
	JobFaultSim    = service.KindFaultSim
	JobDeriveTests = service.KindDeriveTests
)

// NewJobService starts a job service; Close it when done. It panics
// when the configured journal cannot be opened; use OpenJobService to
// handle that error.
func NewJobService(cfg JobServiceConfig) *JobService { return service.New(cfg) }

// OpenJobService starts a job service, replaying the configured job
// journal first: jobs that were queued or running when the previous
// process died are re-queued and re-run.
func OpenJobService(cfg JobServiceConfig) (*JobService, error) { return service.Open(cfg) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// ParseKISS2 reads a KISS2 FSM description.
func ParseKISS2(name string, r io.Reader) (*FSM, error) { return fsmgen.ParseKISS2(name, r) }

// SynthesizeFSM compiles an FSM to a gate-level circuit using the named
// state encoding ("ji", "jo", "jc") and synthesis script ("sd", "sr"),
// optionally with an explicit reset line.
func SynthesizeFSM(f *FSM, encoding, script string, reset bool) (*Circuit, error) {
	enc, ok := fsmgen.ParseEncoding(encoding)
	if !ok {
		enc = fsmgen.EncInput
	}
	scr, ok2 := fsmgen.ParseScript(script)
	if !ok2 {
		scr = fsmgen.ScriptDelay
	}
	return fsmgen.Synthesize(f, fsmgen.SynthOptions{Encoding: enc, Script: scr, Reset: reset})
}
