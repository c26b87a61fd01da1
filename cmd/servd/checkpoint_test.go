package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/failpoint"
	"repro/internal/netlist"
	"repro/internal/service"
)

// checkpointedATPGRequest is a deterministic ATPG job with the random
// phase off, so every collapsed fault is a decided fault: its 342
// faults cross five checkpoint boundaries at servd's cadence
// (atpg.DefaultCheckpointEvery, 64).
func checkpointedATPGRequest(t *testing.T) service.Request {
	t.Helper()
	off := false
	return service.Request{
		Kind:  service.KindATPG,
		Bench: benchCircuit(t, 60, 6),
		ATPG: &service.ATPGSpec{
			RandomPhase: &off, MaxFrames: 4, MaxBacktracks: 30, MaxEvalsPerFault: 20_000,
		},
	}
}

// TestRetryResumesFromCheckpoint crashes a journaled server mid-job --
// the terminal commit is dropped and the checkpoint cleanup skipped, as
// when the process dies between checkpoint writes -- and verifies the
// restarted server's retry resumes from the partial checkpoint and
// serves the byte-identical result over HTTP.
func TestRetryResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")

	// Fail every checkpoint write after the second, freezing the durable
	// file at a genuinely partial decision log; drop the terminal journal
	// commit and the file cleanup, the two things a real crash never
	// reaches.
	var writes atomic.Int64
	failpoint.Enable(atpg.FailpointCheckpointBeforeWrite, func() error {
		if writes.Add(1) > 2 {
			return errors.New("chaos: disk gone")
		}
		return nil
	})
	for _, ev := range []string{"done", "failed", "cancelled"} {
		failpoint.Enable("journal.before-write."+ev, failpoint.Errorf("chaos: crash before %s commit", ev))
	}
	failpoint.Enable("service.checkpoint.before-remove", failpoint.Errorf("chaos: crash before cleanup"))
	defer failpoint.DisableAll()

	svc1, err := service.Open(service.Config{
		Workers: 1, JournalPath: path, DefaultTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(newHandler(svc1, nil))
	id := postJob(t, srv1, checkpointedATPGRequest(t))
	v1 := pollJob(t, srv1, id)
	if v1.Status != service.StatusDone {
		t.Fatalf("first life: %s %q", v1.Status, v1.Error)
	}
	srv1.Close()
	svc1.Close() // the "crash": result computed, never committed
	failpoint.DisableAll()

	ckpt := filepath.Join(dir, id+".ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("crash left no checkpoint to resume from: %v", err)
	}

	// Second life: recovery re-queues the job; its retry must resume
	// from the partial checkpoint and converge on the same result.
	svc2, err := service.Open(service.Config{
		Workers: 1, JournalPath: path, DefaultTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(newHandler(svc2, nil))
	t.Cleanup(func() {
		srv2.Close()
		svc2.Close()
	})
	v2 := pollJob(t, srv2, id)
	if v2.Status != service.StatusDone {
		t.Fatalf("second life: %s %q", v2.Status, v2.Error)
	}
	if got := svc2.Metrics().Counter("atpg.checkpoint.resumed").Value(); got != 1 {
		t.Fatalf("atpg.checkpoint.resumed = %d, want 1", got)
	}
	if got := svc2.Metrics().Counter("atpg.checkpoint.discarded").Value(); got != 0 {
		t.Fatalf("atpg.checkpoint.discarded = %d; the partial checkpoint was valid", got)
	}
	a, _ := json.Marshal(v1.Result)
	b, _ := json.Marshal(v2.Result)
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed result diverged from the lost run:\n %s\n %s", a, b)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatal("completed retry left its checkpoint behind")
	}
}

// TestCancelRacesCheckpointWrite parks an ATPG job inside a checkpoint
// write, cancels it over HTTP while parked, and verifies the job
// retires cleanly -- no deadlock, no checkpoint residue, service still
// serving.
func TestCancelRacesCheckpointWrite(t *testing.T) {
	dir := t.TempDir()
	ready := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	failpoint.Enable(atpg.FailpointCheckpointBeforeWrite, func() error {
		once.Do(func() { close(ready) })
		<-release
		return nil
	})
	defer failpoint.DisableAll()

	svc, err := service.Open(service.Config{
		Workers: 1, JournalPath: filepath.Join(dir, "jobs.journal"),
		DefaultTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(svc, nil))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	id := postJob(t, srv, checkpointedATPGRequest(t))
	<-ready // the worker is now blocked mid-checkpoint-write

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel while checkpointing: status %d", resp.StatusCode)
	}
	close(release)

	if got := pollJob(t, srv, id); got.Status != service.StatusCancelled {
		t.Fatalf("job ended %s: %s", got.Status, got.Error)
	}
	for _, p := range []string{
		filepath.Join(dir, id+".ckpt"),
		filepath.Join(dir, id+".ckpt.tmp"),
	} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("cancelled job left %s behind", p)
		}
	}

	// The service is intact: a fresh job still runs to completion.
	next := postJob(t, srv, service.Request{
		Kind:  service.KindRetime,
		Bench: netlist.BenchString(netlist.Fig2C1()),
	})
	if v := pollJob(t, srv, next); v.Status != service.StatusDone {
		t.Fatalf("post-race job: %s %q", v.Status, v.Error)
	}
}
