package atpg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/iofault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Checkpoint/resume layer.
//
// The generator's expensive state -- which faults were decided, how, at
// what metered cost, and which tests were accepted -- is a pure function
// of the per-fault decisions taken so far: the incremental fault
// simulator, the PRNG-driven random phase and the parallel merge
// frontier are all rebuilt deterministically by replaying that decision
// log against a fresh run. A Checkpoint therefore persists exactly the
// decision log (plus identity hashes binding it to one circuit, fault
// list and option set), and resume replays it: every logged outcome is
// applied without re-running PODEM, every logged test is re-graded
// through the simulator so fault dropping, Effort charges and FsimStats
// advance through the identical operation sequence. A run killed
// anywhere and resumed from its last checkpoint yields a Result
// byte-identical to an uninterrupted run (modulo Effort.Time and the
// scheduling-dependent Parallel stats), at any worker count on either
// side.

// CheckpointVersion is the on-disk format version this build reads and
// writes.
const CheckpointVersion = 1

// DefaultCheckpointEvery is the flush cadence when
// CheckpointConfig.Every is unset.
const DefaultCheckpointEvery = 64

// checkpointMagic leads every encoded checkpoint.
const checkpointMagic = "ATPGCKPT"

// CheckpointIOFaultSite names this package's iofault site: chaos tests
// arm iofault.Point(CheckpointIOFaultSite, op) to fail checkpoint
// opens, writes, syncs, renames or reads with ENOSPC/EIO/torn writes.
const CheckpointIOFaultSite = "checkpoint"

// Failpoint names armed by chaos tests to crash inside the checkpoint
// write path: before anything is written, and between the complete,
// fsynced tmp file and its rename over Path (the iofault rename point
// of CheckpointIOFaultSite).
const (
	FailpointCheckpointBeforeWrite = "atpg.checkpoint.before-write"
	FailpointCheckpointAfterTmp    = "iofault." + CheckpointIOFaultSite + "." + iofault.OpRename
)

// Checkpoint decode/validate errors. Decode failures wrap
// ErrCheckpointCorrupt or ErrCheckpointVersion; Validate failures wrap
// ErrCheckpointMismatch (right format, wrong run).
var (
	ErrCheckpointCorrupt  = errors.New("atpg: corrupt or truncated checkpoint")
	ErrCheckpointVersion  = errors.New("atpg: unsupported checkpoint version")
	ErrCheckpointMismatch = errors.New("atpg: checkpoint does not match this run")
)

// CheckpointConfig wires periodic durable checkpoints into a run; the
// zero value disables them.
type CheckpointConfig struct {
	// Path names the checkpoint file. Writes are atomic: the encoding
	// is written to Path+".tmp", fsynced, and renamed over Path, so a
	// crash leaves either the previous complete checkpoint or the new
	// one, never a torn file at Path.
	Path string
	// Every is the flush cadence in decided faults (default
	// DefaultCheckpointEvery). A final flush also happens when the run
	// ends, so an interrupted run's file covers every completed fault.
	Every int
	// OnWrite, when set, observes every emitted checkpoint and the
	// outcome of its write (nil error when Path is empty). It runs on
	// the generator goroutine; the *Checkpoint is live engine state and
	// must not be retained or mutated -- call Encode to snapshot it.
	OnWrite func(ck *Checkpoint, err error)
	// OnResume, when set, observes what the run did with an existing
	// file at Path: resumed reports that it was installed, err why it
	// was not used instead. It is not called when there is no file. A
	// file that validates but diverges during replay is reported twice:
	// (true, nil), then (false, err wrapping ErrCheckpointMismatch).
	OnResume func(resumed bool, err error)
	// ResumeFrom, when non-nil, replays the checkpoint's decision log
	// before deterministic generation starts, and the file at Path is
	// not consulted. It must validate against the run's circuit, fault
	// list and options (see Validate); RunContext fails with
	// ErrCheckpointMismatch otherwise.
	ResumeFrom *Checkpoint
}

// DecidedFault is one entry of the decision log: the outcome and
// metered cost of one deterministic-phase target fault. Seq is the
// accepted test sequence and is non-empty exactly when Status is
// StatusDetected.
type DecidedFault struct {
	Fault      fault.Fault
	Status     FaultStatus
	Evals      int64
	Backtracks int64
	Seq        sim.Seq
}

// Checkpoint is a durable snapshot of a run at a fault-loop boundary.
// The hashes bind it to one (circuit, fault list, options) triple --
// Workers and the Checkpoint config itself are excluded, so a
// checkpoint resumes correctly across worker counts and checkpoint
// cadences. RandomDone records how many random-phase sequences had been
// graded (the phase is a pure function of Options and is always
// replayed in full; the count is informational).
type Checkpoint struct {
	Version     int
	CircuitHash uint64
	FaultsHash  uint64
	OptionsHash uint64
	NumFaults   int
	RandomDone  int
	Decided     []DecidedFault
}

// newCheckpoint builds an empty checkpoint bound to the run's identity.
func newCheckpoint(c *netlist.Circuit, faults []fault.Fault, opt Options) *Checkpoint {
	return &Checkpoint{
		Version:     CheckpointVersion,
		CircuitHash: hashCircuit(c),
		FaultsHash:  hashFaults(faults),
		OptionsHash: OptionsHash(opt),
		NumFaults:   len(faults),
	}
}

// Validate checks that the checkpoint belongs to this exact run:
// matching format version, circuit, fault list and result-affecting
// options, and an internally consistent decision log. It returns an
// error wrapping ErrCheckpointVersion or ErrCheckpointMismatch.
func (ck *Checkpoint) Validate(c *netlist.Circuit, faults []fault.Fault, opt Options) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("%w: checkpoint has version %d, this build uses %d",
			ErrCheckpointVersion, ck.Version, CheckpointVersion)
	}
	if ck.NumFaults != len(faults) || ck.FaultsHash != hashFaults(faults) {
		return fmt.Errorf("%w: fault list differs", ErrCheckpointMismatch)
	}
	if ck.CircuitHash != hashCircuit(c) {
		return fmt.Errorf("%w: circuit differs", ErrCheckpointMismatch)
	}
	if ck.OptionsHash != OptionsHash(opt) {
		return fmt.Errorf("%w: generator options differ", ErrCheckpointMismatch)
	}
	if len(ck.Decided) > len(faults) {
		return fmt.Errorf("%w: %d decided faults for a %d-fault list",
			ErrCheckpointMismatch, len(ck.Decided), len(faults))
	}
	for _, d := range ck.Decided {
		if (d.Status == StatusDetected) != (len(d.Seq) > 0) {
			return fmt.Errorf("%w: decision log entry for %v is inconsistent",
				ErrCheckpointMismatch, d.Fault)
		}
		for _, v := range d.Seq {
			if len(v) != len(c.Inputs) {
				return fmt.Errorf("%w: logged vector has %d bits, circuit has %d inputs",
					ErrCheckpointMismatch, len(v), len(c.Inputs))
			}
		}
	}
	return nil
}

// Encode serializes the checkpoint into its canonical self-checksummed
// binary form: magic, version, identity hashes, the decision log with
// 2-bit-packed test vectors, and a trailing FNV-1a checksum over
// everything before it. The encoding is canonical -- DecodeCheckpoint
// accepts exactly the byte strings Encode produces -- so decode+encode
// round-trips byte-identically.
func (ck *Checkpoint) Encode() []byte {
	buf := make([]byte, 0, 64+32*len(ck.Decided))
	buf = binary.LittleEndian.AppendUint64(buf, ck.CircuitHash)
	buf = binary.LittleEndian.AppendUint64(buf, ck.FaultsHash)
	buf = binary.LittleEndian.AppendUint64(buf, ck.OptionsHash)
	buf = binary.AppendUvarint(buf, uint64(ck.NumFaults))
	buf = binary.AppendUvarint(buf, uint64(ck.RandomDone))
	buf = binary.AppendUvarint(buf, uint64(len(ck.Decided)))
	for _, d := range ck.Decided {
		buf = binary.AppendUvarint(buf, uint64(d.Fault.Node))
		buf = binary.AppendVarint(buf, int64(d.Fault.Pin))
		buf = append(buf, byte(d.Fault.SA), byte(d.Status))
		buf = binary.AppendUvarint(buf, uint64(d.Evals))
		buf = binary.AppendUvarint(buf, uint64(d.Backtracks))
		if d.Status == StatusDetected {
			width := 0
			if len(d.Seq) > 0 {
				width = len(d.Seq[0])
			}
			buf = binary.AppendUvarint(buf, uint64(len(d.Seq)))
			buf = binary.AppendUvarint(buf, uint64(width))
			buf = appendPackedSeq(buf, d.Seq)
		}
	}
	return frame.Seal(checkpointMagic, CheckpointVersion, buf)
}

// DecodeCheckpoint parses an encoded checkpoint. It never panics on
// arbitrary input: every failure mode (bad magic, checksum mismatch,
// truncation, non-canonical varints, out-of-range values, trailing
// bytes) returns an error wrapping ErrCheckpointCorrupt, except a valid
// frame carrying an unknown version, which wraps ErrCheckpointVersion.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	v, body, err := frame.Open(data, checkpointMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if v != CheckpointVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d",
			ErrCheckpointVersion, v, CheckpointVersion)
	}
	r := frame.NewReader(body)
	ck := &Checkpoint{Version: CheckpointVersion}
	ck.CircuitHash = r.Fixed64()
	ck.FaultsHash = r.Fixed64()
	ck.OptionsHash = r.Fixed64()
	ck.NumFaults = int(r.Uvarint(1 << 31))
	ck.RandomDone = int(r.Uvarint(1 << 31))
	n := int(r.Uvarint(1 << 31))
	// A decision log entry is at least 6 bytes; reject counts the
	// remaining input cannot possibly hold before allocating.
	if r.OK() && n > r.Remaining()/6 {
		return nil, fmt.Errorf("%w: decision log count %d exceeds input", ErrCheckpointCorrupt, n)
	}
	if r.OK() {
		ck.Decided = make([]DecidedFault, 0, n)
	}
	for i := 0; i < n && r.OK(); i++ {
		var d DecidedFault
		d.Fault.Node = int(r.Uvarint(1 << 31))
		d.Fault.Pin = int(r.Varint(fault.StemPin, 1<<31))
		sa := r.Byte()
		if sa > 1 {
			return nil, fmt.Errorf("%w: stuck-at value %d", ErrCheckpointCorrupt, sa)
		}
		d.Fault.SA = logic.V(sa)
		st := r.Byte()
		if st > uint8(StatusRedundant) {
			return nil, fmt.Errorf("%w: fault status %d", ErrCheckpointCorrupt, st)
		}
		d.Status = FaultStatus(st)
		d.Evals = int64(r.Uvarint(1 << 62))
		d.Backtracks = int64(r.Uvarint(1 << 62))
		if d.Status == StatusDetected {
			frames := int(r.Uvarint(1 << 24))
			width := int(r.Uvarint(1 << 24))
			if r.OK() && frames == 0 {
				return nil, fmt.Errorf("%w: detected fault without a test", ErrCheckpointCorrupt)
			}
			d.Seq = readPackedSeq(r, frames, width)
		}
		if !r.OK() {
			break
		}
		ck.Decided = append(ck.Decided, d)
	}
	if !r.OK() {
		return nil, fmt.Errorf("%w: truncated or non-canonical encoding", ErrCheckpointCorrupt)
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, n)
	}
	return ck, nil
}

// WriteFile atomically persists the checkpoint: encode, write to
// path+".tmp", fsync, rename over path. A crash mid-write leaves at
// worst a stale .tmp next to the previous complete checkpoint.
func (ck *Checkpoint) WriteFile(path string) error { return ck.writeFile(path, true) }

// writeFile is WriteFile with the directory fsync optional: the
// periodic writer pays it once to durably create the entry, then skips
// it -- a rename lost to a crash merely resumes from the previous
// complete checkpoint, which converges on the identical result.
func (ck *Checkpoint) writeFile(path string, syncDir bool) error {
	if err := failpoint.Inject(FailpointCheckpointBeforeWrite); err != nil {
		return err
	}
	return iofault.WriteAtomic(CheckpointIOFaultSite, path, ck.Encode(), syncDir)
}

// LoadCheckpoint reads and decodes the checkpoint at path. A missing
// file returns an error satisfying errors.Is(err, os.ErrNotExist);
// anything unreadable wraps ErrCheckpointCorrupt or
// ErrCheckpointVersion.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := iofault.ReadFile(CheckpointIOFaultSite, path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// tryResume loads the checkpoint at opt.Checkpoint.Path, validates it
// against this run, and installs it as opt.Checkpoint.ResumeFrom. A
// missing file is a clean fresh start (false, nil). A file whose
// content cannot be used -- torn, corrupt, wrong version, or from a
// different run -- is deleted along with any .tmp residue so it can
// never wedge a retry loop, and the reason is returned (false, err):
// the run proceeds cleanly from scratch. A plain read IO error (EIO, a
// permission flap) also proceeds from scratch but leaves the file
// intact: the bytes on disk may be a perfectly good checkpoint a later
// attempt can still use, and a transient device error must never
// destroy it. No-op when no path is configured or a ResumeFrom is
// already installed.
func tryResume(opt *Options, c *netlist.Circuit, faults []fault.Fault) (resumed bool, discarded error) {
	path := opt.Checkpoint.Path
	if path == "" || opt.Checkpoint.ResumeFrom != nil {
		return false, nil
	}
	report := func(resumed bool, err error) (bool, error) {
		if opt.Checkpoint.OnResume != nil {
			opt.Checkpoint.OnResume(resumed, err)
		}
		return resumed, err
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		if isCheckpointErr(err) {
			iofault.Discard(path)
		}
		return report(false, err)
	}
	if err := ck.Validate(c, faults, *opt); err != nil {
		iofault.Discard(path)
		return report(false, err)
	}
	opt.Checkpoint.ResumeFrom = ck
	return report(true, nil)
}

// isCheckpointErr reports whether err came from checkpoint decode or
// validation -- failures that must not trigger a final checkpoint write
// (the on-disk file belongs to some other run and overwriting it from a
// half-replayed state would destroy evidence).
func isCheckpointErr(err error) bool {
	return errors.Is(err, ErrCheckpointMismatch) ||
		errors.Is(err, ErrCheckpointVersion) ||
		errors.Is(err, ErrCheckpointCorrupt)
}

// ckWriter accumulates the decision log during a run and emits
// checkpoints on cadence. Nil is a valid receiver (checkpointing off).
// It lives on the generator goroutine only.
//
// Write failures never stop the run -- they only degrade durability --
// and every cadence boundary attempts an emit regardless of earlier
// failures: a failed emit does no more work than a successful one (it
// stops at the step that failed), and each emit is a progress
// heartbeat through OnWrite, the only one the service's watchdog sees
// inside the ATPG stage. An emit that fails partway can never corrupt
// the previous complete checkpoint at Path (iofault.WriteAtomic).
type ckWriter struct {
	cfg       CheckpointConfig
	every     int
	ck        *Checkpoint
	since     int  // decided entries since the last emit
	persisted int  // log entries covered by the last successful emit
	dirSynced bool // directory entry made durable by a prior emit
}

// newCkWriter returns nil unless the options ask for checkpoints.
func newCkWriter(c *netlist.Circuit, faults []fault.Fault, opt Options) *ckWriter {
	cfg := opt.Checkpoint
	if cfg.Path == "" && cfg.OnWrite == nil {
		return nil
	}
	every := cfg.Every
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &ckWriter{cfg: cfg, every: every, ck: newCheckpoint(c, faults, opt)}
}

func (w *ckWriter) setRandomDone(n int) {
	if w != nil {
		w.ck.RandomDone = n
	}
}

// replayed appends a log entry restored from a resumed checkpoint; it
// is already durable and does not count toward the flush cadence.
func (w *ckWriter) replayed(d DecidedFault) {
	if w != nil {
		w.ck.Decided = append(w.ck.Decided, d)
		w.persisted++
	}
}

// decided appends a freshly decided fault and flushes on cadence.
func (w *ckWriter) decided(d DecidedFault) {
	if w == nil {
		return
	}
	w.ck.Decided = append(w.ck.Decided, d)
	if w.since++; w.since >= w.every {
		w.emit()
	}
}

// final flushes the tail of the log when the run ends for any reason --
// completion, cancellation (SIGINT), or failure.
func (w *ckWriter) final() {
	if w != nil && len(w.ck.Decided) > w.persisted {
		w.emit()
	}
}

// emit writes the checkpoint (write failures degrade durability, never
// the run) and reports to OnWrite.
func (w *ckWriter) emit() {
	w.since = 0
	var err error
	if w.cfg.Path != "" {
		err = w.ck.writeFile(w.cfg.Path, !w.dirSynced)
	}
	if err == nil {
		w.dirSynced = true
		w.persisted = len(w.ck.Decided)
	}
	if w.cfg.OnWrite != nil {
		w.cfg.OnWrite(w.ck, err)
	}
}

// --- identity hashing and the canonical wire format ---

// hashCircuit fingerprints the circuit through its canonical bench
// rendering.
func hashCircuit(c *netlist.Circuit) uint64 {
	return frame.NewFNV().Str(netlist.BenchString(c)).Sum()
}

// hashFaults fingerprints the target fault list, order included (the
// decision log is positional).
func hashFaults(faults []fault.Fault) uint64 {
	h := frame.NewFNV().U64(uint64(len(faults)))
	for _, f := range faults {
		h = h.U64(uint64(f.Node)).U64(uint64(f.Pin)).U64(uint64(f.SA))
	}
	return h.Sum()
}

// OptionsHash fingerprints the result-affecting options. Workers and
// the Checkpoint config are deliberately excluded: both are
// result-neutral, so a checkpoint taken at one worker count or cadence
// resumes at any other, and the job service keys serial, parallel and
// distributed runs of one request to one cache entry.
func OptionsHash(opt Options) uint64 {
	return frame.NewFNV().
		U64(uint64(opt.MaxFrames)).
		U64(uint64(opt.MaxBacktracks)).
		U64(uint64(opt.MaxEvalsPerFault)).
		U64(uint64(opt.MaxEvalsTotal)).
		U64(flag(opt.GuidedBacktrace)).
		U64(uint64(opt.FillValue)).
		U64(flag(opt.RandomPhase)).
		U64(uint64(opt.RandomLength)).
		U64(uint64(opt.RandomCount)).
		U64(uint64(opt.RandomSeed)).
		U64(flag(opt.IdentifyRedundant)).
		U64(flag(opt.SyncSeed)).
		// The retired test-only full-resim grader switch hashed here as
		// 0 in every real run; the constant word keeps the identity
		// hashes, and with them checkpoint and cache entry bytes, cache
		// keys and ETags, where they were.
		U64(0).
		Sum()
}

// flag hashes a bool as a 0/1 word.
func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// appendPackedSeq packs a test sequence at 2 bits per logic value
// (Zero=0, One=1, X=2), zero-padding the final byte.
func appendPackedSeq(buf []byte, seq sim.Seq) []byte {
	var acc byte
	k := 0
	for _, v := range seq {
		for _, x := range v {
			acc |= byte(x) << (2 * uint(k&3))
			if k++; k&3 == 0 {
				buf = append(buf, acc)
				acc = 0
			}
		}
	}
	if k&3 != 0 {
		buf = append(buf, acc)
	}
	return buf
}

// readPackedSeq reads frames x width 2-bit logic values, rejecting
// invalid values and non-zero padding (both would break canonical
// round-trip).
func readPackedSeq(r *frame.Reader, frames, width int) sim.Seq {
	total := frames * width
	raw := r.Bytes((total + 3) / 4)
	if !r.OK() {
		return nil
	}
	seq := make(sim.Seq, frames)
	flat := make(sim.Vec, total)
	for k := 0; k < total; k++ {
		x := logic.V(raw[k/4] >> (2 * uint(k&3)) & 3)
		if x > logic.X {
			r.Fail()
			return nil
		}
		flat[k] = x
	}
	if total&3 != 0 && raw[len(raw)-1]>>(2*uint(total&3)) != 0 {
		r.Fail() // non-zero padding bits
		return nil
	}
	for t := range seq {
		seq[t] = flat[t*width : (t+1)*width : (t+1)*width]
	}
	return seq
}
