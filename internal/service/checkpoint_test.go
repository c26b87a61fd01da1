package service

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/netlist"
)

// The checkpoint suite covers the service-side crash residue rules: a
// corrupt or stale per-job checkpoint is discarded and the job still
// completes with the clean-run result, and recovery sweeps the residue
// a crash can leave behind (torn .tmp files, checkpoints of terminal
// or unknown jobs) while preserving exactly the files that re-queued
// jobs resume from.

func atpgRequest() Request {
	// Random phase off so every fault takes the deterministic path --
	// each one a decided-fault boundary the Every=1 cadence writes at.
	off := false
	return Request{
		Kind:  KindATPG,
		Bench: netlist.BenchString(netlist.Fig5N1()),
		ATPG:  &ATPGSpec{RandomPhase: &off},
	}
}

// TestCorruptCheckpointDiscarded: garbage already sitting at the job's
// checkpoint path must never block the job. The resume attempt discards
// it (counted), and the run proceeds clean to the exact result an
// unjournaled service produces.
func TestCorruptCheckpointDiscarded(t *testing.T) {
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "job-000001.ckpt")
	if err := os.WriteFile(ckptPath, []byte("ATPGCKPT\x01 torn and rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptPath+".tmp", []byte("residue"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(Config{
		Workers: 1, JournalPath: filepath.Join(dir, "jobs.journal"),
		DefaultTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.checkpointEvery = 1
	id, err := s.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-000001" {
		t.Fatalf("first job is %s; the pre-planted garbage misses it", id)
	}
	v := waitDone(t, s, id)
	if v.Status != StatusDone {
		t.Fatalf("job with corrupt checkpoint finished %s: %s", v.Status, v.Error)
	}
	if got := s.Metrics().Counter("atpg.checkpoint.discarded").Value(); got < 1 {
		t.Fatalf("atpg.checkpoint.discarded = %d, want >= 1", got)
	}
	if got := s.Metrics().Counter("atpg.checkpoint.resumed").Value(); got != 0 {
		t.Fatalf("atpg.checkpoint.resumed = %d for a garbage file", got)
	}
	if got := s.Metrics().Counter("atpg.checkpoint.written").Value(); got < 1 {
		t.Fatalf("atpg.checkpoint.written = %d; Every=1 should have checkpointed", got)
	}
	// finishJob cleaned up after the terminal state: no residue remains.
	for _, p := range []string{ckptPath, ckptPath + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived job completion", p)
		}
	}

	// The result must match an unjournaled, uncheckpointed run exactly.
	oracle := newTestService(t, Config{Workers: 1, DefaultTimeout: time.Minute})
	oid, err := oracle.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	ov := waitDone(t, oracle, oid)
	if ov.Status != StatusDone || !sameResult(t, v.Result, ov.Result) {
		t.Fatal("corrupt-checkpoint run diverged from the clean oracle")
	}
}

// TestOrphanCheckpointSweep: recovery must delete checkpoint files whose
// job is terminal or unknown to the journal, and every torn .tmp, while
// keeping the file of a job it is about to re-queue -- that file is what
// the retry resumes from.
func TestOrphanCheckpointSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	j, err := openJournal(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := quickRequest()
	res := &Result{Retime: &RetimeResult{Bench: "x"}}
	// Job 1 committed terminally; job 2 was mid-run at crash time.
	j.append(journalEntry{Event: evSubmit, ID: "job-000001", Req: &req})
	j.append(journalEntry{Event: evStart, ID: "job-000001", Attempt: 1})
	j.append(journalEntry{Event: evDone, ID: "job-000001", Result: res})
	j.append(journalEntry{Event: evSubmit, ID: "job-000002", Req: &req})
	j.append(journalEntry{Event: evStart, ID: "job-000002", Attempt: 1})
	j.Close()

	// Crash residue: a checkpoint the terminal job's cleanup never
	// reached, a checkpoint of a job the journal has never heard of, a
	// torn tmp, and the live checkpoint of the job recovery re-queues.
	terminal := filepath.Join(dir, "job-000001.ckpt")
	unknown := filepath.Join(dir, "job-000099.ckpt")
	torn := filepath.Join(dir, "job-000002.ckpt.tmp")
	live := filepath.Join(dir, "job-000002.ckpt")
	for _, p := range []string{terminal, unknown, torn, live} {
		if err := os.WriteFile(p, []byte("ckpt bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the re-queued job at its first stage so the post-sweep state
	// can be observed before the job runs (and then cleans up after
	// itself).
	gate := make(chan struct{})
	failpoint.Enable("stage.parse", func() error { <-gate; return nil })
	defer failpoint.DisableAll()

	s, err := Open(Config{Workers: 1, JournalPath: path, DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, p := range []string{terminal, unknown, torn} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("sweep left orphan %s behind", p)
		}
	}
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("sweep deleted the re-queued job's checkpoint: %v", err)
	}
	if got := s.Metrics().Counter("atpg.checkpoint.discarded").Value(); got != 2 {
		t.Fatalf("atpg.checkpoint.discarded = %d, want 2 (terminal + unknown)", got)
	}

	close(gate)
	v := waitDone(t, s, "job-000002")
	if v.Status != StatusDone {
		t.Fatalf("re-queued job finished %s: %s", v.Status, v.Error)
	}
	// The terminal cleanup takes the surviving checkpoint with it.
	if _, err := os.Stat(live); !os.IsNotExist(err) {
		t.Fatal("finished job left its checkpoint behind")
	}
}
