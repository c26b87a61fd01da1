package atpg

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/iofault"
	"repro/internal/netlist"
)

// ckFixture returns a circuit, its collapsed fault list, options, and a
// fresh checkpoint bound to that identity.
func ckFixture(t *testing.T) (*netlist.Circuit, []fault.Fault, Options, *Checkpoint) {
	t.Helper()
	c := netlist.Fig5N1()
	reps, _ := fault.Collapse(c)
	opt := checkpointOptions()
	return c, reps, opt, newCheckpoint(c, reps, opt)
}

// TestTornTmpWriteNeverCorruptsCheckpoint: a torn write (and an ENOSPC
// rename) during an emit must leave the previous complete checkpoint at
// Path untouched and no torn .tmp residue behind.
func TestTornTmpWriteNeverCorruptsCheckpoint(t *testing.T) {
	_, reps, _, ck := ckFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	ck.Decided = append(ck.Decided, DecidedFault{Fault: reps[0], Status: StatusAborted})

	t.Run("torn write", func(t *testing.T) {
		failpoint.Enable(iofault.Point(CheckpointIOFaultSite, iofault.OpWrite), iofault.PartialWrite(7, nil))
		defer failpoint.DisableAll()
		if err := ck.WriteFile(path); !errors.Is(err, iofault.ErrIO) {
			t.Fatalf("torn write err = %v, want EIO", err)
		}
	})
	t.Run("sync EIO", func(t *testing.T) {
		failpoint.Enable(iofault.Point(CheckpointIOFaultSite, iofault.OpSync), iofault.IOError())
		defer failpoint.DisableAll()
		if err := ck.WriteFile(path); !errors.Is(err, iofault.ErrIO) {
			t.Fatalf("sync err = %v, want EIO", err)
		}
	})
	t.Run("rename ENOSPC", func(t *testing.T) {
		failpoint.Enable(iofault.Point(CheckpointIOFaultSite, iofault.OpRename), iofault.NoSpace())
		defer failpoint.DisableAll()
		if err := ck.WriteFile(path); !errors.Is(err, iofault.ErrNoSpace) {
			t.Fatalf("rename err = %v, want ENOSPC", err)
		}
	})

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, after) {
		t.Fatal("failed emits corrupted the previous checkpoint at Path")
	}
	// Torn write and sync failure both scrub their .tmp; the rename
	// failure legitimately leaves a complete (not torn) tmp behind.
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("previous checkpoint no longer loads: %v", err)
	}
}

// TestCheckpointWriterHeartbeatsOnEveryBoundary: with the disk failing
// every attempt, the cadence writer still attempts an emit -- and so
// reports a progress heartbeat through OnWrite -- on every cadence
// boundary, so a watchdog never mistakes a full disk for a stalled
// run; the final flush (disk recovered) persists the complete log.
func TestCheckpointWriterHeartbeatsOnEveryBoundary(t *testing.T) {
	c, reps, opt, _ := ckFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var attempts, failuresSeen int
	opt.Checkpoint = CheckpointConfig{
		Path:  path,
		Every: 1,
		OnWrite: func(_ *Checkpoint, err error) {
			attempts++
			if err != nil {
				failuresSeen++
			}
		},
	}
	w := newCkWriter(c, reps, opt)

	failpoint.Enable(iofault.Point(CheckpointIOFaultSite, iofault.OpWrite), iofault.NoSpace())
	const decisions = 40
	for i := 0; i < decisions; i++ {
		w.decided(DecidedFault{Fault: reps[i%len(reps)], Status: StatusAborted})
	}
	failpoint.DisableAll()
	if attempts != decisions || failuresSeen != decisions {
		t.Fatalf("OnWrite fired on %d of %d boundaries (%d failures), want every boundary",
			attempts, decisions, failuresSeen)
	}

	// Disk recovered: the final flush persists every decided entry.
	w.final()
	if attempts != decisions+1 || failuresSeen != decisions {
		t.Fatalf("final flush: attempts = %d failures = %d, want %d/%d",
			attempts, failuresSeen, decisions+1, decisions)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Decided) != decisions {
		t.Fatalf("persisted log has %d entries, want %d", len(ck.Decided), decisions)
	}
}

// TestTryResumeKeepsFileOnReadError: a transient read EIO must not
// delete a perfectly good checkpoint — the run starts clean, and a
// later attempt (device recovered) resumes from the very same file.
func TestTryResumeKeepsFileOnReadError(t *testing.T) {
	c, reps, opt, ck := ckFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint.Path = path

	failpoint.Enable(iofault.Point(CheckpointIOFaultSite, iofault.OpRead), iofault.IOError())
	resumed, discarded := tryResume(&opt, c, reps)
	failpoint.DisableAll()
	if resumed || !errors.Is(discarded, iofault.ErrIO) {
		t.Fatalf("tryResume under EIO = (%v, %v), want (false, EIO)", resumed, discarded)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("read error deleted the checkpoint: %v", err)
	}

	// Device recovered: the same file resumes.
	resumed, discarded = tryResume(&opt, c, reps)
	if !resumed || discarded != nil {
		t.Fatalf("tryResume after recovery = (%v, %v), want (true, nil)", resumed, discarded)
	}

	// Contrast: genuinely corrupt content is still deleted so it can
	// never wedge a retry loop.
	opt.Checkpoint.ResumeFrom = nil
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, discarded = tryResume(&opt, c, reps)
	if resumed || !errors.Is(discarded, ErrCheckpointCorrupt) {
		t.Fatalf("tryResume on garbage = (%v, %v)", resumed, discarded)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt checkpoint was not deleted")
	}
}
