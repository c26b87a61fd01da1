package resultcache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/iofault"
	"repro/internal/metrics"
	"repro/internal/retry"
)

// breakerCache builds a disk-backed cache with a fast breaker and a
// recorded log.
func breakerCache(t *testing.T, probeEvery time.Duration) (*Cache, *metrics.Registry, *strings.Builder, *sync.Mutex) {
	t.Helper()
	reg := metrics.NewRegistry()
	var logMu sync.Mutex
	var log strings.Builder
	c := New(Config{
		Dir:     t.TempDir(),
		Metrics: reg,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			fmt.Fprintf(&log, format+"\n", args...)
			logMu.Unlock()
		},
	})
	c.store.br = retry.NewBreaker(diskFailThreshold, probeEvery)
	t.Cleanup(failpoint.DisableAll)
	return c, reg, &log, &logMu
}

// TestDiskBreakerOpensSkipsAndRecovers: three consecutive write errors
// open the breaker (gauge up, transitions logged); while open, saves
// are skipped without touching the disk; after the probe interval one
// attempt goes through and a healthy disk closes the breaker again.
func TestDiskBreakerOpensSkipsAndRecovers(t *testing.T) {
	const probe = 40 * time.Millisecond
	c, reg, log, logMu := breakerCache(t, probe)

	failpoint.Enable(iofault.Point(DiskIOFaultSite, iofault.OpWrite), iofault.NoSpace())
	for i := 0; i < 3; i++ {
		c.Put(Key{Circuit: uint64(i)}, []byte("payload"))
	}
	if got := reg.Counter("cache.disk_errors").Value(); got != 3 {
		t.Fatalf("disk_errors = %d, want 3", got)
	}
	if reg.Gauge("cache.disk_degraded").Value() != 1 {
		t.Fatal("breaker did not open after 3 consecutive errors")
	}

	// Open breaker, probe not yet due: the save is skipped entirely --
	// no new error even though the failpoint is still armed.
	c.Put(Key{Circuit: 99}, []byte("payload"))
	if got := reg.Counter("cache.disk_skipped").Value(); got == 0 {
		t.Fatal("open breaker did not skip the save")
	}
	if got := reg.Counter("cache.disk_errors").Value(); got != 3 {
		t.Fatalf("skipped save still hit the disk (errors = %d)", got)
	}

	// Probe due, disk still sick: exactly one attempt leaks through and
	// fails; the breaker stays open.
	time.Sleep(probe + 10*time.Millisecond)
	c.Put(Key{Circuit: 100}, []byte("payload"))
	if got := reg.Counter("cache.disk_errors").Value(); got != 4 {
		t.Fatalf("probe attempt errors = %d, want 4", got)
	}
	if reg.Gauge("cache.disk_degraded").Value() != 1 {
		t.Fatal("failed probe closed the breaker")
	}

	// Disk recovered: the next due probe succeeds, closes the breaker,
	// and the entry really lands on disk.
	failpoint.DisableAll()
	time.Sleep(probe + 10*time.Millisecond)
	k := Key{Circuit: 7, Faults: 7, Options: 7}
	c.Put(k, []byte("durable again"))
	if reg.Gauge("cache.disk_degraded").Value() != 0 {
		t.Fatal("successful probe did not close the breaker")
	}
	if got := reg.Counter("cache.disk_recovered").Value(); got != 1 {
		t.Fatalf("disk_recovered = %d, want 1", got)
	}
	c2 := New(Config{Dir: c.store.dir, Metrics: metrics.NewRegistry()})
	if payload, src, ok := c2.Get(k); !ok || src != SourceDisk || string(payload) != "durable again" {
		t.Fatalf("post-recovery entry not on disk: ok=%v src=%v payload=%q", ok, src, payload)
	}

	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(log.String(), "disk tier disabled after 3 consecutive IO errors") ||
		!strings.Contains(log.String(), "disk tier recovered") {
		t.Fatalf("breaker transitions not logged:\n%s", log.String())
	}
}

// TestDiskLoadErrorsFeedBreaker: read EIO counts as cache.disk_errors
// (load failures were silent before the breaker) and opens the breaker
// on its own; a merely missing entry file stays neutral.
func TestDiskLoadErrorsFeedBreaker(t *testing.T) {
	c, reg, _, _ := breakerCache(t, time.Hour)
	k := Key{Circuit: 1, Faults: 2, Options: 3}
	c.Put(k, []byte("x"))

	// Missing files are not errors: a cold miss must never open the
	// breaker on a healthy disk.
	c.Get(Key{Circuit: 42})
	if got := reg.Counter("cache.disk_errors").Value(); got != 0 {
		t.Fatalf("missing entry counted as disk error (%d)", got)
	}

	failpoint.Enable(iofault.Point(DiskIOFaultSite, iofault.OpRead), iofault.IOError())
	other := New(Config{Dir: c.store.dir, Metrics: reg})
	other.store.br = retry.NewBreaker(diskFailThreshold, time.Hour)
	for i := 0; i < 3; i++ {
		if _, _, ok := other.Get(k); ok {
			t.Fatal("EIO read reported a hit")
		}
	}
	if got := reg.Counter("cache.disk_errors").Value(); got != 3 {
		t.Fatalf("disk_errors = %d, want 3 (load failures silent again)", got)
	}
	if reg.Gauge("cache.disk_degraded").Value() != 1 {
		t.Fatal("read errors alone did not open the breaker")
	}
}

// TestDiskTornSaveScrubsTmp: a torn entry write removes its own .tmp so
// the recovery sweep has nothing to trip over, and the entry is simply
// absent (memory tier still serves it).
func TestDiskTornSaveScrubsTmp(t *testing.T) {
	c, reg, _, _ := breakerCache(t, time.Hour)
	k := Key{Circuit: 5}
	failpoint.Enable(iofault.Point(DiskIOFaultSite, iofault.OpWrite), iofault.PartialWrite(4, nil))
	c.Put(k, []byte("torn"))
	failpoint.DisableAll()
	if got := reg.Counter("cache.disk_errors").Value(); got != 1 {
		t.Fatalf("disk_errors = %d, want 1", got)
	}
	if n := c.Sweep(); n != 0 {
		t.Fatalf("sweep removed %d files; torn save left residue", n)
	}
	if payload, src, ok := c.Get(k); !ok || src != SourceMemory || string(payload) != "torn" {
		t.Fatalf("memory tier lost the entry: ok=%v src=%v", ok, src)
	}
}
