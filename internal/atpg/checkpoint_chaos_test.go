package atpg

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// chaosWorkers returns the worker counts the kill/resume differential
// runs at: the check.sh short gate keeps {1, 4}, the full tier-1 pass
// adds 2.
func chaosWorkers() []int {
	if testing.Short() {
		return []int{1, 4}
	}
	return []int{1, 2, 4}
}

// TestCheckpointKillAnywhereResume is the hard guarantee of the
// checkpoint layer. A run killed at ANY instant leaves on disk the
// checkpoint of some fault-loop boundary (atomic rename guarantees the
// file is always one complete boundary snapshot); so the test captures
// the boundary snapshot after every single decided fault (Every=1) and
// proves that resuming from each of them -- serial or parallel, and
// regardless of the worker count that produced the snapshot --
// reproduces the uninterrupted oracle byte-identically (modulo
// Effort.Time and scheduling-dependent Parallel stats).
func TestCheckpointKillAnywhereResume(t *testing.T) {
	circuits := []*netlist.Circuit{netlist.Fig5N1()}
	rng := rand.New(rand.NewSource(21))
	circuits = append(circuits, netlist.Random(rng, netlist.RandomParams{
		Inputs: 6, Outputs: 5, Gates: 60, DFFs: 6, MaxFanin: 4,
	}))
	for _, c := range circuits {
		reps, _ := fault.Collapse(c)
		oracle := normalize(Run(c, reps, checkpointOptions()))

		for _, snapWorkers := range []int{1, 4} {
			opt := checkpointOptions()
			opt.Workers = snapWorkers
			var snaps [][]byte
			opt.Checkpoint = CheckpointConfig{
				Every:   1,
				OnWrite: func(ck *Checkpoint, err error) { snaps = append(snaps, ck.Encode()) },
			}
			full, err := RunContext(context.Background(), c, reps, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(oracle, normalize(full)) {
				t.Fatalf("%s workers=%d: checkpointing run diverged from oracle", c.Name, snapWorkers)
			}
			if len(snaps) == 0 {
				t.Fatalf("%s workers=%d: no boundary snapshots", c.Name, snapWorkers)
			}

			for _, i := range sampleKillPoints(len(snaps)) {
				ck, err := DecodeCheckpoint(snaps[i])
				if err != nil {
					t.Fatalf("%s: snapshot %d: %v", c.Name, i, err)
				}
				for _, workers := range chaosWorkers() {
					ropt := checkpointOptions()
					ropt.Workers = workers
					ropt.Checkpoint.ResumeFrom = ck
					got, err := RunContext(context.Background(), c, reps, ropt)
					if err != nil {
						t.Fatalf("%s: resume snap=%d workers=%d: %v", c.Name, i, workers, err)
					}
					if !reflect.DeepEqual(oracle, normalize(got)) {
						t.Fatalf("%s: resume from snapshot %d (of %d) at workers=%d diverged from oracle",
							c.Name, i, len(snaps), workers)
					}
				}
			}
		}
	}
}

// sampleKillPoints picks the boundary snapshots to resume from: 3 in
// short mode (first, middle, last -- the check.sh chaos stage), up to
// 10 spread evenly otherwise.
func sampleKillPoints(n int) []int {
	points := 10
	if testing.Short() {
		points = 3
	}
	if n <= points {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, points)
	for i := range idx {
		idx[i] = i * (n - 1) / (points - 1)
	}
	return idx
}

// TestCheckpointRandomKillResume kills real runs with asynchronous
// cancellation at randomized delays -- landing mid-PODEM, mid-grade or
// mid-checkpoint-write -- then resumes from whatever the dying run left
// on disk (the interrupt path flushes a final checkpoint) and requires
// the oracle result. This exercises the actual SIGINT/crash code path
// end to end, including runs killed before any checkpoint existed.
func TestCheckpointRandomKillResume(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 8, Outputs: 6, Gates: 120, DFFs: 10, MaxFanin: 4,
	})
	reps, _ := fault.Collapse(c)
	opt := checkpointOptions()
	oracle := normalize(Run(c, reps, opt))

	trials := 6
	if testing.Short() {
		trials = 3
	}
	dir := t.TempDir()
	for trial := 0; trial < trials; trial++ {
		path := filepath.Join(dir, "trial.ckpt")
		os.Remove(path)
		workers := chaosWorkers()[trial%len(chaosWorkers())]

		kopt := opt
		kopt.Workers = workers
		kopt.Checkpoint = CheckpointConfig{Path: path, Every: 1}
		delay := time.Duration(1+rng.Intn(40)) * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		_, killErr := RunContext(ctx, c, reps, kopt)
		cancel()

		ropt := opt
		ropt.Workers = chaosWorkers()[(trial+1)%len(chaosWorkers())]
		ropt.Checkpoint.Path = path
		resumed, discarded := tryResume(&ropt, c, reps)
		if discarded != nil {
			t.Fatalf("trial %d: killed run left an unusable checkpoint: %v", trial, discarded)
		}
		if killErr == nil && !resumed {
			t.Fatalf("trial %d: completed run left no checkpoint", trial)
		}
		got, err := RunContext(context.Background(), c, reps, ropt)
		if err != nil {
			t.Fatalf("trial %d: resume: %v", trial, err)
		}
		if !reflect.DeepEqual(oracle, normalize(got)) {
			t.Fatalf("trial %d: kill after %v (workers %d->%d, resumed=%v) diverged from oracle",
				trial, delay, workers, ropt.Workers, resumed)
		}
	}
}

// TestCheckpointKillMidWriteResume crashes the checkpoint writer itself
// between the tmp write and the rename: the on-disk file must still be
// the previous complete boundary snapshot, and resuming from it must
// reproduce the oracle. This is the torn-write half of the crash model.
func TestCheckpointKillMidWriteResume(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 6, Outputs: 5, Gates: 60, DFFs: 6, MaxFanin: 4,
	})
	reps, _ := fault.Collapse(c)
	opt := checkpointOptions()
	oracle := normalize(Run(c, reps, opt))

	path := filepath.Join(t.TempDir(), "torn.ckpt")
	writes := 0
	failpoint.Enable(FailpointCheckpointAfterTmp, func() error {
		if writes++; writes == 3 {
			return errors.New("simulated crash mid-rename")
		}
		return nil
	})
	defer failpoint.DisableAll()

	kopt := opt
	kopt.Checkpoint = CheckpointConfig{Path: path, Every: 1, OnWrite: func(ck *Checkpoint, err error) {
		// Emulate the process dying the moment the torn write happened:
		// nothing after this write may touch the file.
		if err != nil {
			failpoint.Disable(FailpointCheckpointAfterTmp)
			failpoint.Enable(FailpointCheckpointBeforeWrite, failpoint.Errorf("process is dead"))
		}
	}}
	if _, err := RunContext(context.Background(), c, reps, kopt); err != nil {
		t.Fatalf("checkpoint write failures must not fail the run: %v", err)
	}
	failpoint.DisableAll()

	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("torn write left no tmp residue: %v", err)
	}
	ropt := opt
	ropt.Checkpoint.Path = path
	resumed, discarded := tryResume(&ropt, c, reps)
	if !resumed || discarded != nil {
		t.Fatalf("previous boundary snapshot unusable after torn write: resumed=%v err=%v", resumed, discarded)
	}
	if got := len(ropt.Checkpoint.ResumeFrom.Decided); got != 2 {
		t.Fatalf("on-disk file has %d decided faults, want the pre-crash boundary 2", got)
	}
	got, err := RunContext(context.Background(), c, reps, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oracle, normalize(got)) {
		t.Fatal("resume after torn write diverged from oracle")
	}
}
