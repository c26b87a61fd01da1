package atpg

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/netlist"
)

// capturedRun runs the workload with checkpointing armed at Every=1 and
// returns the oracle result plus the encoding of every checkpoint
// emitted at a fault-loop boundary.
func capturedRun(t *testing.T, c *netlist.Circuit, opt Options) (*Result, [][]byte) {
	t.Helper()
	var snaps [][]byte
	opt.Checkpoint = CheckpointConfig{
		Every:   1,
		OnWrite: func(ck *Checkpoint, err error) { snaps = append(snaps, ck.Encode()) },
	}
	reps, _ := fault.Collapse(c)
	res := Run(c, reps, opt)
	return res, snaps
}

func checkpointOptions() Options {
	opt := parallelOptions()
	opt.RandomLength = 8
	opt.RandomCount = 2
	return opt
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := netlist.Fig5N1()
	_, snaps := capturedRun(t, c, checkpointOptions())
	if len(snaps) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	for i, data := range snaps {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("snap %d: decode: %v", i, err)
		}
		if !bytes.Equal(ck.Encode(), data) {
			t.Fatalf("snap %d: decode+encode is not byte-identical", i)
		}
		ck2, err := DecodeCheckpoint(ck.Encode())
		if err != nil {
			t.Fatalf("snap %d: re-decode: %v", i, err)
		}
		if !reflect.DeepEqual(ck, ck2) {
			t.Fatalf("snap %d: round-trip changed the checkpoint", i)
		}
		if len(ck.Decided) != i+1 {
			t.Fatalf("snap %d: %d decided entries, want %d", i, len(ck.Decided), i+1)
		}
	}
}

// TestCheckpointDecodeRejectsCorruption feeds truncations and bit flips
// of a real encoding to the decoder: every one must fail cleanly (no
// panic, a wrapped sentinel), because this is exactly what torn writes
// and disk rot produce.
func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	_, snaps := capturedRun(t, netlist.Fig5N1(), checkpointOptions())
	data := snaps[len(snaps)-1]
	if _, err := DecodeCheckpoint(nil); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("nil input: %v", err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeCheckpoint(data[:cut]); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("truncation at %d accepted (err=%v)", cut, err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		if ck, err := DecodeCheckpoint(mut); err == nil {
			// A flip in the checksum's own bytes cannot be detected by
			// the checksum; everything else must be.
			if !bytes.Equal(ck.Encode(), mut) {
				t.Fatalf("trial %d: accepted a corrupted non-canonical encoding", trial)
			}
		} else if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("trial %d: wrong error class: %v", trial, err)
		}
	}
}

// TestCheckpointDecodeRejectsFutureVersion crafts a valid frame with a
// bumped version: the decoder must identify it as a version problem,
// not corruption, so operators see the real cause.
func TestCheckpointDecodeRejectsFutureVersion(t *testing.T) {
	_, snaps := capturedRun(t, netlist.Fig5N1(), checkpointOptions())
	_, body, err := frame.Open(snaps[0], checkpointMagic)
	if err != nil {
		t.Fatal(err)
	}
	fixed := frame.Seal(checkpointMagic, 99, body)
	if _, err := DecodeCheckpoint(fixed); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("future version: %v", err)
	}
}

func TestCheckpointValidate(t *testing.T) {
	c := netlist.Fig5N1()
	opt := checkpointOptions()
	_, snaps := capturedRun(t, c, opt)
	ck, err := DecodeCheckpoint(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c)
	if err := ck.Validate(c, reps, opt); err != nil {
		t.Fatalf("matching run rejected: %v", err)
	}

	// Result-neutral knobs must not invalidate the checkpoint.
	neutral := opt
	neutral.Workers = 4
	neutral.Checkpoint = CheckpointConfig{Path: "elsewhere", Every: 7}
	if err := ck.Validate(c, reps, neutral); err != nil {
		t.Fatalf("worker/checkpoint knobs rejected: %v", err)
	}

	// Anything result-affecting must.
	changed := opt
	changed.MaxBacktracks++
	if err := ck.Validate(c, reps, changed); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("changed options accepted: %v", err)
	}
	if err := ck.Validate(netlist.Fig2C1(), reps, opt); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("different circuit accepted: %v", err)
	}
	if err := ck.Validate(c, reps[:len(reps)-1], opt); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("different fault list accepted: %v", err)
	}
}

func TestCheckpointWriteFileAtomicAndTornResidue(t *testing.T) {
	c := netlist.Fig5N1()
	_, snaps := capturedRun(t, c, checkpointOptions())
	first, err := DecodeCheckpoint(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	last, err := DecodeCheckpoint(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := first.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, got) {
		t.Fatal("loaded checkpoint differs from written one")
	}

	// Crash between the tmp write and the rename: the previous complete
	// checkpoint must survive untouched, with only .tmp residue added.
	failpoint.Enable(FailpointCheckpointAfterTmp, failpoint.Errorf("torn"))
	defer failpoint.DisableAll()
	if err := last.WriteFile(path); err == nil {
		t.Fatal("torn write reported success")
	}
	failpoint.Disable(FailpointCheckpointAfterTmp)
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("no tmp residue after torn write: %v", err)
	}
	got, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after torn write: %v", err)
	}
	if !reflect.DeepEqual(first, got) {
		t.Fatal("torn write disturbed the previous checkpoint")
	}
}

func TestTryResume(t *testing.T) {
	c := netlist.Fig5N1()
	opt := checkpointOptions()
	reps, _ := fault.Collapse(c)
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")

	// No file: clean fresh start.
	o := opt
	o.Checkpoint.Path = path
	if resumed, discarded := tryResume(&o, c, reps); resumed || discarded != nil {
		t.Fatalf("missing file: resumed=%v discarded=%v", resumed, discarded)
	}

	// Valid file: installed as ResumeFrom.
	_, snaps := capturedRun(t, c, opt)
	ck, _ := DecodeCheckpoint(snaps[len(snaps)-1])
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	o = opt
	o.Checkpoint.Path = path
	if resumed, discarded := tryResume(&o, c, reps); !resumed || discarded != nil {
		t.Fatalf("valid file: resumed=%v discarded=%v", resumed, discarded)
	}
	if o.Checkpoint.ResumeFrom == nil || len(o.Checkpoint.ResumeFrom.Decided) != len(ck.Decided) {
		t.Fatal("ResumeFrom not installed")
	}

	// Corrupt file: discarded (removed, with .tmp residue) and reported.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	o = opt
	o.Checkpoint.Path = path
	resumed, discarded := tryResume(&o, c, reps)
	if resumed || !errors.Is(discarded, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt file: resumed=%v discarded=%v", resumed, discarded)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt checkpoint not removed")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("tmp residue not removed")
	}

	// Stale file from a different run: discarded and reported.
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	o = opt
	o.MaxFrames++
	o.Checkpoint.Path = path
	resumed, discarded = tryResume(&o, c, reps)
	if resumed || !errors.Is(discarded, ErrCheckpointMismatch) {
		t.Fatalf("stale file: resumed=%v discarded=%v", resumed, discarded)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale checkpoint not removed")
	}
}

// TestCheckpointingDoesNotPerturb: arming checkpoints must not change
// the result in any way.
func TestCheckpointingDoesNotPerturb(t *testing.T) {
	for _, c := range parallelWorkloads(t) {
		reps, _ := fault.Collapse(c)
		want := Run(c, reps, checkpointOptions())
		opt := checkpointOptions()
		opt.Checkpoint = CheckpointConfig{
			Path:  filepath.Join(t.TempDir(), "run.ckpt"),
			Every: 2,
		}
		got := Run(c, reps, opt)
		if !reflect.DeepEqual(normalize(want), normalize(got)) {
			t.Fatalf("%s: checkpointing perturbed the result", c.Name)
		}
	}
}

// TestCheckpointMismatchFailsRun: a ResumeFrom that does not belong to
// the run must fail it with ErrCheckpointMismatch, not silently corrupt
// the result.
func TestCheckpointMismatchFailsRun(t *testing.T) {
	c := netlist.Fig5N1()
	opt := checkpointOptions()
	_, snaps := capturedRun(t, c, opt)
	ck, _ := DecodeCheckpoint(snaps[len(snaps)-1])
	other := netlist.Fig2C1()
	reps, _ := fault.Collapse(other)
	opt.Checkpoint.ResumeFrom = ck
	if _, err := RunContext(context.Background(), other, reps, opt); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("foreign checkpoint accepted: %v", err)
	}
}

// TestCheckpointDivergentFileRerunsClean: a file at Checkpoint.Path
// that passes its identity hashes but whose decision log diverges
// during replay (one written by an earlier engine, say) is discarded
// and the run redone clean once: nil error, the clean Result, the file
// rewritten with the clean log, and OnResume seeing the resume and
// then the discard.
func TestCheckpointDivergentFileRerunsClean(t *testing.T) {
	c := netlist.Fig5N1()
	opt := checkpointOptions()
	opt.RandomPhase = false // every fault is a decision log entry
	reps, _ := fault.Collapse(c)
	want := Run(c, reps, opt)
	_, snaps := capturedRun(t, c, opt)
	complete := snaps[len(snaps)-1]
	ck, err := DecodeCheckpoint(complete)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Decided) < 2 {
		t.Fatalf("checkpoint has %d decisions, need 2 to swap", len(ck.Decided))
	}
	ck.Decided[0], ck.Decided[1] = ck.Decided[1], ck.Decided[0]
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		resumed bool
		err     error
	}
	var seen []outcome
	opt.Checkpoint = CheckpointConfig{
		Path:     path,
		OnResume: func(resumed bool, err error) { seen = append(seen, outcome{resumed, err}) },
	}
	got, err := RunContext(context.Background(), c, reps, opt)
	if err != nil {
		t.Fatalf("divergent checkpoint failed the run: %v", err)
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatal("post-discard result differs from a clean run")
	}
	if len(seen) != 2 || !seen[0].resumed || seen[0].err != nil ||
		seen[1].resumed || !errors.Is(seen[1].err, ErrCheckpointMismatch) {
		t.Fatalf("OnResume saw %v, want [{true <nil>} {false mismatch}]", seen)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("checkpoint not rewritten: %v", err)
	}
	if !bytes.Equal(data, complete) {
		t.Fatal("rewritten checkpoint differs from the clean run's log")
	}
}
