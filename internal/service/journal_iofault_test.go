package service

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/iofault"
	"repro/internal/metrics"
	"repro/internal/retry"
)

// TestJournalDegradedModeAndRecovery: a torn journal write flips the
// journal to memory-only (gauge up, error surfaced once), entries are
// dropped without touching the sick disk until the probe interval, and
// the first successful probe repairs the torn tail and resumes durable
// appends -- replay afterwards parses every surviving entry and skips
// exactly the torn line.
func TestJournalDegradedModeAndRecovery(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	path := filepath.Join(t.TempDir(), "jobs.journal")
	reg := metrics.NewRegistry()
	const probe = 40 * time.Millisecond
	j, err := openJournal(path, false, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.br = retry.NewBreaker(journalFailThreshold, probe)

	req := quickRequest()
	if err := j.append(journalEntry{Event: evSubmit, ID: "job-000001", Req: &req}); err != nil {
		t.Fatal(err)
	}

	// Torn write: half the start entry reaches disk, then EIO.
	failpoint.Enable(iofault.Point(journalIOFaultSite, iofault.OpWrite), iofault.PartialWrite(10, nil))
	if err := j.append(journalEntry{Event: evStart, ID: "job-000001", Attempt: 1}); err == nil {
		t.Fatal("failed write did not surface an error")
	}
	if reg.Gauge("journal.degraded").Value() != 1 {
		t.Fatal("journal did not degrade after a write failure")
	}

	// Degraded, probe not due: entries are dropped silently (nil error,
	// counted) and the armed failpoint proves the disk is not touched.
	if err := j.append(journalEntry{Event: evStart, ID: "job-000001", Attempt: 2}); err != nil {
		t.Fatalf("degraded append surfaced %v, want silent drop", err)
	}
	if got := reg.Counter("journal.dropped_entries").Value(); got != 1 {
		t.Fatalf("dropped_entries = %d, want 1", got)
	}

	// Probe due but disk still sick: the probe fails, stays degraded.
	time.Sleep(probe + 10*time.Millisecond)
	if err := j.append(journalEntry{Event: evStart, ID: "job-000001", Attempt: 3}); err != nil {
		t.Fatalf("failed probe surfaced %v", err)
	}
	if reg.Gauge("journal.degraded").Value() != 1 || reg.Counter("journal.dropped_entries").Value() != 2 {
		t.Fatal("failed probe did not stay degraded")
	}

	// Disk recovered: the next due probe terminates the torn line and
	// lands its entry durably.
	failpoint.DisableAll()
	time.Sleep(probe + 10*time.Millisecond)
	if err := j.append(journalEntry{Event: evDone, ID: "job-000001", Result: &Result{}}); err != nil {
		t.Fatalf("recovery probe append: %v", err)
	}
	if reg.Gauge("journal.degraded").Value() != 0 {
		t.Fatal("successful probe did not recover")
	}
	if got := reg.Counter("journal.recovered").Value(); got != 1 {
		t.Fatalf("journal.recovered = %d, want 1", got)
	}

	// The file now holds: submit, 10 torn bytes, a lone newline, done.
	// Replay must reconstruct the job as done and skip only the torn
	// line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, skipped := replayJournal(bytes.NewReader(data))
	if len(jobs) != 1 || jobs[0].Status != StatusDone {
		t.Fatalf("replay after repair: %d jobs, status %v", len(jobs), jobs[0].Status)
	}
	if skipped != 1 {
		t.Fatalf("replay skipped %d lines, want exactly the torn one", skipped)
	}
}

// TestJournalDegradeOnENOSPC: a clean ENOSPC (nothing written) also
// degrades, and recovery's lone-newline repair is harmless when there
// was no torn tail -- replay skips only the empty line it added.
func TestJournalDegradeOnENOSPC(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	path := filepath.Join(t.TempDir(), "jobs.journal")
	reg := metrics.NewRegistry()
	j, err := openJournal(path, true, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.br = retry.NewBreaker(journalFailThreshold, time.Nanosecond)

	req := quickRequest()
	if err := j.append(journalEntry{Event: evSubmit, ID: "job-000001", Req: &req}); err != nil {
		t.Fatal(err)
	}
	failpoint.Enable(iofault.Point(journalIOFaultSite, iofault.OpWrite), iofault.NoSpace())
	if err := j.append(journalEntry{Event: evStart, ID: "job-000001", Attempt: 1}); err == nil {
		t.Fatal("ENOSPC write did not surface")
	}
	failpoint.DisableAll()

	// 1ns cooldown: the very next append is a probe and recovers.
	if err := j.append(journalEntry{Event: evCancelled, ID: "job-000001"}); err != nil {
		t.Fatal(err)
	}
	if reg.Gauge("journal.degraded").Value() != 0 {
		t.Fatal("did not recover on first probe")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, skipped := replayJournal(bytes.NewReader(data))
	if len(jobs) != 1 || jobs[0].Status != StatusCancelled || skipped != 0 {
		t.Fatalf("replay: %d jobs, skipped %d", len(jobs), skipped)
	}
}
