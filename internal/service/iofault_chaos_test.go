package service

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/failpoint"
	"repro/internal/iofault"
	"repro/internal/metrics"
	"repro/internal/resultcache"
)

// The durability chaos table: every write-path op of every iofault
// site -- journal, checkpoint, cache disk tier -- fails with ENOSPC,
// EIO, or a torn (partial) write, and the invariant is always the
// same: the job completes StatusDone with a result byte-identical to
// a run that never saw a fault, while the site's degraded-mode signal
// fires. IO failures on durability paths degrade durability, never
// correctness or availability.
func TestDurabilityFaultsNeverFailJobs(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)

	// Healthy reference: the same request on a fully durable service.
	ref := runDurable(t, nil, metrics.NewRegistry(), false)

	cases := []struct {
		name   string
		point  string
		action func() error
		sync   bool // fsync the journal after each entry
		// degraded asserts the site's failure signal fired.
		degraded func(t *testing.T, reg *metrics.Registry)
	}{
		{
			name:     "journal write enospc",
			point:    iofault.Point(journalIOFaultSite, iofault.OpWrite),
			action:   iofault.NoSpace(),
			degraded: wantJournalDegraded,
		},
		{
			name:     "journal write eio",
			point:    iofault.Point(journalIOFaultSite, iofault.OpWrite),
			action:   iofault.IOError(),
			degraded: wantJournalDegraded,
		},
		{
			name:     "journal torn write",
			point:    iofault.Point(journalIOFaultSite, iofault.OpWrite),
			action:   iofault.PartialWrite(7, nil),
			degraded: wantJournalDegraded,
		},
		{
			name:     "journal sync eio",
			point:    iofault.Point(journalIOFaultSite, iofault.OpSync),
			action:   iofault.IOError(),
			sync:     true,
			degraded: wantJournalDegraded,
		},
		{
			name:     "checkpoint open enospc",
			point:    iofault.Point(atpg.CheckpointIOFaultSite, iofault.OpOpen),
			action:   iofault.NoSpace(),
			degraded: wantCheckpointErrors,
		},
		{
			name:     "checkpoint write enospc",
			point:    iofault.Point(atpg.CheckpointIOFaultSite, iofault.OpWrite),
			action:   iofault.NoSpace(),
			degraded: wantCheckpointErrors,
		},
		{
			name:     "checkpoint torn write",
			point:    iofault.Point(atpg.CheckpointIOFaultSite, iofault.OpWrite),
			action:   iofault.PartialWrite(5, nil),
			degraded: wantCheckpointErrors,
		},
		{
			name:     "checkpoint sync eio",
			point:    iofault.Point(atpg.CheckpointIOFaultSite, iofault.OpSync),
			action:   iofault.IOError(),
			degraded: wantCheckpointErrors,
		},
		{
			name:     "checkpoint rename eio",
			point:    iofault.Point(atpg.CheckpointIOFaultSite, iofault.OpRename),
			action:   iofault.IOError(),
			degraded: wantCheckpointErrors,
		},
		{
			name:     "cache write enospc",
			point:    iofault.Point(resultcache.DiskIOFaultSite, iofault.OpWrite),
			action:   iofault.NoSpace(),
			degraded: wantCacheDiskErrors,
		},
		{
			name:     "cache torn write",
			point:    iofault.Point(resultcache.DiskIOFaultSite, iofault.OpWrite),
			action:   iofault.PartialWrite(3, nil),
			degraded: wantCacheDiskErrors,
		},
		{
			name:     "cache sync eio",
			point:    iofault.Point(resultcache.DiskIOFaultSite, iofault.OpSync),
			action:   iofault.IOError(),
			degraded: wantCacheDiskErrors,
		},
		{
			name:     "cache rename enospc",
			point:    iofault.Point(resultcache.DiskIOFaultSite, iofault.OpRename),
			action:   iofault.NoSpace(),
			degraded: wantCacheDiskErrors,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Cleanup(failpoint.DisableAll)
			reg := metrics.NewRegistry()
			v := runDurable(t, func() { failpoint.Enable(c.point, c.action) }, reg, c.sync)
			if !sameResult(t, v.Result, ref.Result) {
				t.Fatal("result under injected IO faults differs from the healthy run")
			}
			c.degraded(t, reg)
		})
	}
}

// runDurable runs one ATPG job on a service with every durability
// feature on (journal, per-fault checkpoints, disk cache tier), with
// arm (when non-nil) arming failpoints after Open but before the
// submission, and returns the terminal view. The job must end
// StatusDone whatever is armed.
func runDurable(t *testing.T, arm func(), reg *metrics.Registry, syncJournal bool) View {
	t.Helper()
	dir := t.TempDir()
	s := New(Config{
		Workers:     1,
		Metrics:     reg,
		JournalPath: filepath.Join(dir, "jobs.journal"),
		SyncJournal: syncJournal,
		CacheDir:    filepath.Join(dir, "cache"),
	})
	defer s.Close()
	s.checkpointEvery = 1
	if arm != nil {
		arm()
	}
	id, err := s.Submit(atpgRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("job did not finish: %v (status %s)", err, v.Status)
	}
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s), want done despite IO faults", v.Status, v.Error)
	}
	return v
}

func wantJournalDegraded(t *testing.T, reg *metrics.Registry) {
	t.Helper()
	if reg.Gauge("journal.degraded").Value() != 1 {
		t.Fatal("journal did not enter degraded (memory-only) mode")
	}
	if reg.Counter("journal.errors").Value() == 0 {
		t.Fatal("journal write failure not counted")
	}
}

func wantCheckpointErrors(t *testing.T, reg *metrics.Registry) {
	t.Helper()
	if reg.Counter("atpg.checkpoint.errors").Value() == 0 {
		t.Fatal("checkpoint write failures not counted")
	}
	if reg.Counter("atpg.checkpoint.written").Value() != 0 {
		t.Fatal("a checkpoint claimed success under an always-failing site")
	}
}

func wantCacheDiskErrors(t *testing.T, reg *metrics.Registry) {
	t.Helper()
	if reg.Counter("cache.disk_errors").Value() == 0 {
		t.Fatal("cache disk tier failure not counted")
	}
}
