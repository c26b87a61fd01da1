package service

import (
	"context"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/failpoint"
	"repro/internal/metrics"
)

// watchdogService builds a journaled service with a fast watchdog and
// checkpoint cadence 1, so ATPG jobs heartbeat on every decided fault
// and a wedge is detected within a few hundred milliseconds. The tests
// drive atpgRequest (random phase off): every fault takes the
// deterministic path, so each is a checkpoint boundary -- both a
// heartbeat and a place for the failpoint to wedge the attempt.
func watchdogService(t *testing.T, reg *metrics.Registry) *Service {
	t.Helper()
	s := New(Config{
		Workers:         2,
		Metrics:         reg,
		JournalPath:     filepath.Join(t.TempDir(), "jobs.journal"),
		CheckpointEvery: 1,
		WatchdogWindow:  250 * time.Millisecond,
	})
	t.Cleanup(s.Close)
	return s
}

// TestWatchdogRequeuesStalledJob wedges an ATPG attempt on its third
// checkpoint write -- blocked forever, no error, no progress -- and
// proves the watchdog detects the stall, requeues the job through the
// retry ladder, and that attempt 2 resumes from the checkpoint the
// wedged attempt left behind, completing byte-identical to a run that
// never stalled.
func TestWatchdogRequeuesStalledJob(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	reg := metrics.NewRegistry()
	s := watchdogService(t, reg)

	// Block exactly the third checkpoint write of attempt 1. Later
	// calls (attempt 2's writes) pass untouched, so only the one wedged
	// goroutine ever parks on the channel.
	var calls atomic.Int64
	block := make(chan struct{})
	t.Cleanup(func() { close(block) }) // release the abandoned goroutine
	failpoint.Enable(atpg.FailpointCheckpointBeforeWrite, func() error {
		if calls.Add(1) == 3 {
			<-block
		}
		return nil
	})

	req := atpgRequest()
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("job never finished after stall: %v (status %s)", err, v.Status)
	}
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s), want done", v.Status, v.Error)
	}
	if v.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2 (one stalled, one clean)", v.Attempt)
	}
	if got := reg.Counter("service.watchdog.stalled").Value(); got != 1 {
		t.Fatalf("watchdog.stalled = %d, want 1", got)
	}
	if got := reg.Counter("service.watchdog.requeued").Value(); got != 1 {
		t.Fatalf("watchdog.requeued = %d, want 1", got)
	}
	if got := reg.Counter("atpg.checkpoint.resumed").Value(); got < 1 {
		t.Fatal("attempt 2 did not resume from the stalled attempt's checkpoint")
	}

	// Byte-identical to a run that never saw the wedge.
	ref := New(Config{Workers: 1, Metrics: metrics.NewRegistry()})
	defer ref.Close()
	refID, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := ref.Wait(ctx, refID)
	if err != nil || rv.Status != StatusDone {
		t.Fatalf("reference run: %v status %s", err, rv.Status)
	}
	if !sameResult(t, v.Result, rv.Result) {
		t.Fatal("stall-recovered result differs from the healthy run")
	}
}

// TestWatchdogGivesUpAtMaxAttempts wedges every attempt: with
// maxAttempts=3 the third stall must fail the job for good, with an
// error naming the stall, not hang or requeue forever.
func TestWatchdogGivesUpAtMaxAttempts(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	reg := metrics.NewRegistry()
	s := watchdogService(t, reg)

	// Every checkpoint write from the third on blocks, so attempt 1
	// wedges after two writes and each retry wedges on its first, before
	// the resumed attempts can finish the job; close(block) releases all
	// parked goroutines at cleanup.
	var calls atomic.Int64
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	failpoint.Enable(atpg.FailpointCheckpointBeforeWrite, func() error {
		if calls.Add(1) >= 3 {
			<-block
		}
		return nil
	})

	id, err := s.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("job never reached terminal state: %v (status %s)", err, v.Status)
	}
	if v.Status != StatusFailed || !strings.Contains(v.Error, "stalled") {
		t.Fatalf("status = %s (%q), want failed with a stall error", v.Status, v.Error)
	}
	if got := reg.Counter("service.watchdog.stalled").Value(); got != 3 {
		t.Fatalf("watchdog.stalled = %d, want 3", got)
	}
	if got := reg.Counter("service.watchdog.requeued").Value(); got != 2 {
		t.Fatalf("watchdog.requeued = %d, want 2 (the third stall gives up)", got)
	}
}
