// Package dispatch is the failure-aware fan-out layer for distributed
// ATPG: it shards a fault list across worker backends, tracks backend
// health (heartbeat probes plus a consecutive-failure circuit breaker),
// enforces per-shard deadlines, retries failed shards with capped
// jittered exponential backoff, migrates a dead backend's partial work
// to a survivor by shipping its last checkpoint, and degrades to local
// in-process execution when every backend is down.
//
// Correctness is anchored on two existing invariants. Per-fault PODEM
// generation is a pure function of (circuit, options, fault), so shard
// backends only precompute what the serial loop would compute anyway
// (atpg.GenerateShard); the merge run (atpg.RunContextFanOut) hands
// its random-phase survivors to the fan-out and takes the shard
// results as candidates, making the merged Result byte-identical to a
// serial atpg.Run at every backend count, under every failure and
// migration schedule. And the checkpoint format is worker-count
// independent and bound to its (circuit, fault list, options) identity
// by hashes, so migrated partial work is validated before it is
// trusted -- a poisoned or torn checkpoint is rejected, never merged.
package dispatch

import (
	"context"

	"repro/internal/atpg"
	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// ShardSpec is one unit of fan-out work: generate a candidate decision
// for every fault in Faults, resuming from Resume when non-nil.
type ShardSpec struct {
	// Circuit is the parsed circuit; Bench is its canonical rendering
	// (what HTTP backends put on the wire -- parsing it back under
	// Circuit.Name reproduces the identical identity hash).
	Circuit *netlist.Circuit
	Bench   string
	// Faults is the shard's fault slice, in global fault-list order.
	Faults []fault.Fault
	// Opt carries the result-affecting generator options. Workers and
	// Checkpoint are ignored by backends (each wires its own
	// checkpointing); everything else must reach the backend unchanged
	// or the shard's identity hash will not validate.
	Opt atpg.Options
	// Resume is a previously captured partial checkpoint for this shard
	// (migrated work); backends replay it instead of regenerating.
	Resume *atpg.Checkpoint
	// CheckpointEvery is the backend-side partial checkpoint cadence in
	// decided faults (0 = the atpg default). Result-neutral.
	CheckpointEvery int
}

// Progress observes backend-side partial checkpoints as they are
// emitted. Implementations of Backend.Run must call it synchronously
// (from the Run goroutine); the checkpoint is a private snapshot the
// receiver may retain.
type Progress func(*atpg.Checkpoint)

// Backend executes shards. Implementations: Local (in-process, used by
// tests and for degraded execution) and HTTPBackend (a cmd/workerd
// worker over the shard protocol).
type Backend interface {
	// Name identifies the backend in metrics and migration accounting.
	Name() string
	// Healthy probes the backend; heartbeat failures feed its breaker.
	Healthy(ctx context.Context) error
	// Run executes the shard to completion, reporting partial
	// checkpoints through progress, and returns the full decision log
	// (one entry per spec fault, in order). On failure it returns
	// whatever error killed the attempt; the dispatcher's last observed
	// progress checkpoint is what migrates to the next attempt.
	Run(ctx context.Context, spec ShardSpec, progress Progress) ([]atpg.DecidedFault, error)
}

// FailpointBackendPrefix + name is injected at the top of Local.Run, so
// chaos tests can take a specific in-process backend "down" (error
// action) or make it slow (sleep action) without touching the others.
const FailpointBackendPrefix = "dispatch.backend."

// Local is the in-process backend: it runs atpg.GenerateShard on the
// caller's machine. The dispatcher uses one as the degraded-mode
// executor; tests use several to exercise the retry ladder without
// network plumbing.
type Local struct{ name string }

// NewLocal returns an in-process backend with the given name.
func NewLocal(name string) *Local { return &Local{name: name} }

// Name implements Backend.
func (b *Local) Name() string { return b.name }

// Healthy implements Backend; an in-process backend is reachable by
// construction, but the failpoint lets chaos tests fail its heartbeat.
func (b *Local) Healthy(context.Context) error {
	return failpoint.Inject(FailpointBackendPrefix + b.name + ".health")
}

// Run implements Backend.
func (b *Local) Run(ctx context.Context, spec ShardSpec, progress Progress) ([]atpg.DecidedFault, error) {
	if err := failpoint.Inject(FailpointBackendPrefix + b.name); err != nil {
		return nil, err
	}
	opt := spec.Opt
	opt.Workers = 0
	opt.Checkpoint = atpg.CheckpointConfig{
		Every:      spec.CheckpointEvery,
		ResumeFrom: spec.Resume,
		OnWrite: func(ck *atpg.Checkpoint, _ error) {
			if progress == nil {
				return
			}
			// The callback hands over live engine state; snapshot through
			// the canonical encoding, exactly what a remote backend ships.
			snap, err := atpg.DecodeCheckpoint(ck.Encode())
			if err == nil {
				progress(snap)
			}
		},
	}
	return atpg.GenerateShard(ctx, spec.Circuit, spec.Faults, opt)
}
