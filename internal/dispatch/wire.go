package dispatch

import (
	"encoding/json"
	"fmt"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// The shard protocol wire format, shared by HTTPBackend (client) and
// Worker (server, fronted by cmd/workerd).
//
//	POST   /v1/shards       submit a shard (shardRequest); 202 {"id":...}
//	GET    /v1/shards/{id}  poll status (shardStatusWire); doubles as the
//	                        heartbeat -- the latest partial checkpoint
//	                        rides along, so the dispatcher always holds
//	                        migratable state for a backend that dies
//	DELETE /v1/shards/{id}  cancel and forget the shard
//	GET    /healthz         liveness probe (the heartbeat target)
//
// Checkpoints travel in the PR 5 canonical binary encoding (base64 in
// JSON); both the final decision log and every partial checkpoint are
// the same format, identity-hash bound to (circuit, shard fault list,
// options), so the receiver validates everything it is handed and a
// poisoned response can never reach the merge.

// optionsWire is the JSON shape of the result-affecting atpg.Options.
// Workers and Checkpoint are deliberately absent: both are
// result-neutral and backend-local.
type optionsWire struct {
	MaxFrames         int   `json:"max_frames"`
	MaxBacktracks     int   `json:"max_backtracks"`
	MaxEvalsPerFault  int64 `json:"max_evals_per_fault"`
	MaxEvalsTotal     int64 `json:"max_evals_total"`
	GuidedBacktrace   bool  `json:"guided_backtrace"`
	FillValue         uint8 `json:"fill_value"`
	RandomPhase       bool  `json:"random_phase"`
	RandomLength      int   `json:"random_length"`
	RandomCount       int   `json:"random_count"`
	RandomSeed        int64 `json:"random_seed"`
	IdentifyRedundant bool  `json:"identify_redundant"`
	SyncSeed          bool  `json:"sync_seed"`
}

func toOptionsWire(opt atpg.Options) optionsWire {
	return optionsWire{
		MaxFrames:         opt.MaxFrames,
		MaxBacktracks:     opt.MaxBacktracks,
		MaxEvalsPerFault:  opt.MaxEvalsPerFault,
		MaxEvalsTotal:     opt.MaxEvalsTotal,
		GuidedBacktrace:   opt.GuidedBacktrace,
		FillValue:         uint8(opt.FillValue),
		RandomPhase:       opt.RandomPhase,
		RandomLength:      opt.RandomLength,
		RandomCount:       opt.RandomCount,
		RandomSeed:        opt.RandomSeed,
		IdentifyRedundant: opt.IdentifyRedundant,
		SyncSeed:          opt.SyncSeed,
	}
}

func (w optionsWire) options() atpg.Options {
	return atpg.Options{
		MaxFrames:         w.MaxFrames,
		MaxBacktracks:     w.MaxBacktracks,
		MaxEvalsPerFault:  w.MaxEvalsPerFault,
		MaxEvalsTotal:     w.MaxEvalsTotal,
		GuidedBacktrace:   w.GuidedBacktrace,
		FillValue:         logic.V(w.FillValue),
		RandomPhase:       w.RandomPhase,
		RandomLength:      w.RandomLength,
		RandomCount:       w.RandomCount,
		RandomSeed:        w.RandomSeed,
		IdentifyRedundant: w.IdentifyRedundant,
		SyncSeed:          w.SyncSeed,
	}
}

// faultWire is one fault on the wire.
type faultWire struct {
	Node int   `json:"node"`
	Pin  int   `json:"pin"`
	SA   uint8 `json:"sa"`
}

func toFaultWire(fs []fault.Fault) []faultWire {
	out := make([]faultWire, len(fs))
	for i, f := range fs {
		out[i] = faultWire{Node: f.Node, Pin: f.Pin, SA: uint8(f.SA)}
	}
	return out
}

func fromFaultWire(ws []faultWire) []fault.Fault {
	out := make([]fault.Fault, len(ws))
	for i, w := range ws {
		out[i] = fault.Fault{Site: fault.Site{Node: w.Node, Pin: w.Pin}, SA: logic.V(w.SA)}
	}
	return out
}

// shardRequest submits one shard to a worker.
type shardRequest struct {
	// Name and Bench reproduce the circuit: parsing Bench under Name
	// yields the identical canonical rendering, hence the identical
	// circuit identity hash.
	Name  string      `json:"name"`
	Bench string      `json:"bench"`
	Fault []faultWire `json:"faults"`
	Opt   optionsWire `json:"options"`
	// Resume is an encoded checkpoint of previously completed work for
	// this shard (migration); the worker validates it before replay.
	Resume []byte `json:"resume,omitempty"`
	// CheckpointEvery is the partial-checkpoint cadence in decided
	// faults (0 = atpg.DefaultCheckpointEvery).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// DeadlineMS bounds the shard's run on the worker (0 = none): the
	// time left before the job's deadline, which also cancels the
	// dispatcher's side of the attempt.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// shardWork is a fully decoded and validated shard submission, ready
// to run. decodeShardRequest is the only path from untrusted bytes to
// a shardWork, so everything past it can assume in-range fault sites
// and an identity-checked resume checkpoint.
type shardWork struct {
	c          *netlist.Circuit
	faults     []fault.Fault
	opt        atpg.Options
	resume     *atpg.Checkpoint
	every      int
	deadlineMS int64
}

// resumeLen reports how many decided faults the resume checkpoint
// carries (0 when starting fresh).
func (w *shardWork) resumeLen() int {
	if w.resume == nil {
		return 0
	}
	return len(w.resume.Decided)
}

// decodeShardRequest parses and validates one shard submission. Every
// rejection is a clean error (the worker answers 400); in particular
// each fault site is checked against the parsed circuit, so a hostile
// or corrupted submission can never push an out-of-range node or pin
// index into the ATPG engine running on a shared worker process.
func decodeShardRequest(data []byte) (*shardWork, error) {
	var req shardRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("bad request: %w", err)
	}
	c, err := netlist.ParseBenchString(req.Name, req.Bench)
	if err != nil {
		return nil, fmt.Errorf("bad circuit: %w", err)
	}
	if len(req.Fault) == 0 {
		return nil, fmt.Errorf("empty shard")
	}
	faults := fromFaultWire(req.Fault)
	for i, f := range faults {
		if f.Node < 0 || f.Node >= len(c.Nodes) {
			return nil, fmt.Errorf("fault %d: node %d out of range [0,%d)", i, f.Node, len(c.Nodes))
		}
		if f.Pin != fault.StemPin && (f.Pin < 0 || f.Pin >= len(c.Nodes[f.Node].Fanin)) {
			return nil, fmt.Errorf("fault %d: pin %d out of range for node %d (%d fanins)",
				i, f.Pin, f.Node, len(c.Nodes[f.Node].Fanin))
		}
		if !f.SA.Known() {
			return nil, fmt.Errorf("fault %d: stuck-at value %d is not 0 or 1", i, uint8(f.SA))
		}
	}
	opt := req.Opt.options()
	w := &shardWork{c: c, faults: faults, opt: opt, every: req.CheckpointEvery, deadlineMS: req.DeadlineMS}
	if len(req.Resume) > 0 {
		ck, err := atpg.DecodeCheckpoint(req.Resume)
		if err != nil {
			return nil, fmt.Errorf("bad resume checkpoint: %w", err)
		}
		// Identity-validate before accepting migrated work; replay in
		// GenerateShard re-checks, but rejecting here keeps a poisoned
		// migration from ever occupying the run slot.
		if err := ck.Validate(c, faults, opt); err != nil {
			return nil, fmt.Errorf("bad resume checkpoint: %w", err)
		}
		w.resume = ck
	}
	return w, nil
}

// Shard lifecycle states on the worker.
const (
	shardStateQueued  = "queued"
	shardStateRunning = "running"
	shardStateDone    = "done"
	shardStateFailed  = "failed"
)

// shardStatusWire is a poll response.
type shardStatusWire struct {
	State string `json:"state"`
	// Decided counts log entries so far (replayed + fresh).
	Decided int `json:"decided"`
	// Checkpoint is the latest partial checkpoint while running, and
	// the complete decision log once done, in the canonical encoding.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	Error      string `json:"error,omitempty"`
}
