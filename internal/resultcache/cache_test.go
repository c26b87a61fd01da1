package resultcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/frame"
	"repro/internal/metrics"
)

func key(i int) Key {
	// Spread the components like real identity hashes would.
	return Key{
		Circuit: frame.NewFNV().U64(uint64(i)).Sum(),
		Faults:  frame.NewFNV().U64(uint64(i * 31)).Sum(),
		Options: frame.NewFNV().Str(fmt.Sprintf("opt-%d", i)).Sum(),
	}
}

func TestKeyStringRoundTrip(t *testing.T) {
	for _, k := range []Key{{}, {1, 2, 3}, {^uint64(0), 0x0123456789abcdef, 42}, key(7)} {
		s := k.String()
		if len(s) != 50 {
			t.Fatalf("String() = %q, want 50 chars", s)
		}
		got, ok := ParseKey(s)
		if !ok || got != k {
			t.Fatalf("ParseKey(%q) = %v, %v; want %v", s, got, ok, k)
		}
	}
	for _, s := range []string{"", "xyz", key(1).String()[:49], key(1).String() + "0"} {
		if _, ok := ParseKey(s); ok {
			t.Fatalf("ParseKey(%q) accepted", s)
		}
	}
	bad := []byte(key(1).String())
	bad[3] = 'g'
	if _, ok := ParseKey(string(bad)); ok {
		t.Fatal("ParseKey accepted a non-hex digit")
	}
}

func TestParamsHashSeparatesParts(t *testing.T) {
	if ParamsHash("ab", "c") == ParamsHash("a", "bc") {
		t.Fatal("part boundaries do not affect the hash")
	}
	if ParamsHash("x") != ParamsHash("x") {
		t.Fatal("hash not deterministic")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(Config{})
	k := key(1)
	if _, _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("payload"))
	got, src, ok := c.Get(k)
	if !ok || src != SourceMemory || string(got) != "payload" {
		t.Fatalf("Get = %q, %v, %v", got, src, ok)
	}
	reg := c.Metrics()
	if reg.Counter("cache.hits").Value() != 1 || reg.Counter("cache.misses").Value() != 1 ||
		reg.Counter("cache.stores").Value() != 1 {
		t.Fatalf("counters hits=%d misses=%d stores=%d",
			reg.Counter("cache.hits").Value(), reg.Counter("cache.misses").Value(),
			reg.Counter("cache.stores").Value())
	}
}

func TestEvictionIsLRUAndByteAccounted(t *testing.T) {
	c := New(Config{MaxBytes: 4 * (100 + memEntryOverhead)})
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 4; i++ {
		c.Put(key(i), payload)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d before overflow", c.Len())
	}
	// Touch key 0 so key 1 is now the coldest.
	c.Get(key(0))
	c.Put(key(4), payload)
	if c.Len() != 4 {
		t.Fatalf("Len = %d after eviction", c.Len())
	}
	if _, _, ok := c.Get(key(1)); ok {
		t.Fatal("LRU victim survived")
	}
	for _, i := range []int{0, 2, 3, 4} {
		if _, _, ok := c.Get(key(i)); !ok {
			t.Fatalf("key %d evicted out of LRU order", i)
		}
	}
	if got := c.Metrics().Counter("cache.evictions").Value(); got != 1 {
		t.Fatalf("evictions = %d", got)
	}
	if max := int64(4 * (100 + memEntryOverhead)); c.Bytes() > max {
		t.Fatalf("Bytes = %d exceeds budget %d", c.Bytes(), max)
	}
}

func TestOversizedPayloadSkipsMemory(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{MaxBytes: 256, Dir: dir})
	k := key(1)
	big := bytes.Repeat([]byte("y"), 1024)
	c.Put(k, big)
	if c.Len() != 0 {
		t.Fatal("oversized payload cached in memory")
	}
	// ... but it still round-trips through the disk store.
	got, src, ok := c.Get(k)
	if !ok || src != SourceDisk || !bytes.Equal(got, big) {
		t.Fatalf("disk Get = %d bytes, %v, %v", len(got), src, ok)
	}
}

func TestDiskStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	k := key(9)
	New(Config{Dir: dir}).Put(k, []byte("durable"))

	c2 := New(Config{Dir: dir}) // fresh memory tier, same directory
	got, src, ok := c2.Get(k)
	if !ok || src != SourceDisk || string(got) != "durable" {
		t.Fatalf("after restart: %q, %v, %v", got, src, ok)
	}
	// The disk hit was promoted; the next lookup is a memory hit.
	if _, src, ok := c2.Get(k); !ok || src != SourceMemory {
		t.Fatalf("promotion failed: %v, %v", src, ok)
	}
}

func TestCorruptEntryDiscardedOnLoad(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{Dir: dir})
	k := key(3)
	c.Put(k, []byte("clean"))
	path := filepath.Join(dir, k.String()+entryExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := New(Config{Dir: dir})
	if _, _, ok := c2.Get(k); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt entry not deleted")
	}
	if got := c2.Metrics().Counter("cache.disk_discarded").Value(); got != 1 {
		t.Fatalf("disk_discarded = %d", got)
	}
}

func TestEntryWithForeignKeyDiscarded(t *testing.T) {
	// A valid entry renamed to another key's file must not answer for it.
	dir := t.TempDir()
	c := New(Config{Dir: dir})
	c.Put(key(1), []byte("one"))
	src := filepath.Join(dir, key(1).String()+entryExt)
	dst := filepath.Join(dir, key(2).String()+entryExt)
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	c2 := New(Config{Dir: dir})
	if _, _, ok := c2.Get(key(2)); ok {
		t.Fatal("renamed entry served under the wrong key")
	}
	if _, err := os.Stat(dst); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("mismatched entry not deleted")
	}
}

func TestSweepRemovesResidue(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{Dir: dir})
	c.Put(key(1), []byte("keep me"))

	good := filepath.Join(dir, key(1).String()+entryExt)
	torn := filepath.Join(dir, key(2).String()+entryExt+".tmp")
	corrupt := filepath.Join(dir, key(3).String()+entryExt)
	badName := filepath.Join(dir, "not-a-key"+entryExt)
	renamed := filepath.Join(dir, key(4).String()+entryExt)
	for _, w := range []struct {
		path string
		data []byte
	}{
		{torn, []byte("half-written")},
		{corrupt, []byte("garbage")},
		{badName, []byte("whatever")},
		{renamed, (&Entry{Key: key(5), Payload: []byte("moved")}).Encode()},
	} {
		if err := os.WriteFile(w.path, w.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if removed := c.Sweep(); removed != 4 {
		t.Fatalf("Sweep removed %d files, want 4", removed)
	}
	for _, p := range []string{torn, corrupt, badName, renamed} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the sweep", filepath.Base(p))
		}
	}
	if _, err := os.Stat(good); err != nil {
		t.Fatal("valid entry removed by the sweep")
	}
	if New(Config{}).Sweep() != 0 {
		t.Fatal("sweep without a disk store did something")
	}
}

func TestDelete(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{Dir: dir})
	k := key(1)
	c.Put(k, []byte("x"))
	c.Delete(k)
	if _, _, ok := c.Get(k); ok {
		t.Fatal("deleted key still served")
	}
	if _, err := os.Stat(filepath.Join(dir, k.String()+entryExt)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("deleted key still on disk")
	}
}

func TestSingleFlightSharesOneComputation(t *testing.T) {
	c := New(Config{})
	k := key(1)
	var computes atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	errs := make([]error, waiters)
	// The leader blocks in compute until every follower has had a chance
	// to pile onto the flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, errs[0] = c.Do(context.Background(), k, func() ([]byte, error) {
			close(started)
			computes.Add(1)
			<-gate
			return []byte("answer"), nil
		})
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.Do(context.Background(), k, func() ([]byte, error) {
				computes.Add(1)
				return []byte("answer"), nil
			})
		}(i)
	}
	// Release the leader only once every follower is provably parked on
	// the flight, so all of them must take the shared path.
	for c.flightWaiters(k) != waiters-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times", got)
	}
	for i := range results {
		if errs[i] != nil || string(results[i]) != "answer" {
			t.Fatalf("caller %d: %q, %v", i, results[i], errs[i])
		}
	}
	if shared := c.Metrics().Counter("cache.singleflight_shared").Value(); shared != waiters-1 {
		t.Fatalf("singleflight_shared = %d, want %d", shared, waiters-1)
	}
}

// flightWaiters reports how many callers are parked on k's in-flight
// computation (test helper).
func (c *Cache) flightWaiters(k Key) int64 {
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	if f, ok := c.flights[k]; ok {
		return f.waiters.Load()
	}
	return 0
}

func TestSingleFlightLeaderFailureDoesNotStick(t *testing.T) {
	c := New(Config{})
	k := key(1)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), k, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("leader error = %v", err)
	}
	// The failure was not cached; the next caller recomputes.
	got, src, err := c.Do(context.Background(), k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(got) != "ok" || src != SourceNone {
		t.Fatalf("after failure: %q, %v, %v", got, src, err)
	}
}

func TestSingleFlightFollowerRetriesAfterLeaderFailure(t *testing.T) {
	c := New(Config{})
	k := key(1)
	gate := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), k, func() ([]byte, error) {
		close(started)
		<-gate
		return nil, errors.New("leader died")
	})
	<-started
	done := make(chan struct{})
	var got []byte
	var err error
	go func() {
		defer close(done)
		got, _, err = c.Do(context.Background(), k, func() ([]byte, error) {
			return []byte("recomputed"), nil
		})
	}()
	close(gate)
	<-done
	if err != nil || string(got) != "recomputed" {
		t.Fatalf("follower after leader failure: %q, %v", got, err)
	}
}

func TestSingleFlightWaiterHonorsContext(t *testing.T) {
	c := New(Config{})
	k := key(1)
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	go c.Do(context.Background(), k, func() ([]byte, error) {
		close(started)
		<-gate
		return []byte("late"), nil
	})
	<-started
	// A caller with an already-expired context fails fast without
	// touching the flight.
	expired, cancelExpired := context.WithCancel(context.Background())
	cancelExpired()
	if _, _, err := c.Do(expired, k, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired caller: %v", err)
	}
	// A parked waiter whose context is cancelled mid-wait unblocks with
	// its own error instead of waiting out the leader.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, k, nil)
		errc <- err
	}()
	for c.flightWaiters(k) == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}
}

func TestSingleFlightLeaderPanicUnblocksWaiters(t *testing.T) {
	c := New(Config{})
	k := key(1)
	started := make(chan struct{})
	panicked := make(chan struct{})
	go func() {
		defer func() {
			recover()
			close(panicked)
		}()
		c.Do(context.Background(), k, func() ([]byte, error) {
			close(started)
			panic("chaos")
		})
	}()
	<-started
	<-panicked
	// The flight settled despite the panic; a new caller recomputes.
	got, _, err := c.Do(context.Background(), k, func() ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || string(got) != "fresh" {
		t.Fatalf("after leader panic: %q, %v", got, err)
	}
}

func TestConcurrentHammer(t *testing.T) {
	// Many goroutines, few keys, a budget holding three of the seven
	// entries: eviction, single-flight and disk promotion all race
	// under -race.
	dir := t.TempDir()
	c := New(Config{MaxBytes: 512, Dir: dir, Metrics: metrics.NewRegistry()})
	const (
		goroutines = 16
		iters      = 60
		keys       = 7
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := key((g + i) % keys)
				want := fmt.Sprintf("payload-%d", (g+i)%keys)
				got, _, err := c.Do(context.Background(), k, func() ([]byte, error) {
					return []byte(want), nil
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if string(got) != want {
					t.Errorf("key %v: got %q, want %q", k, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Sweep() != 0 {
		t.Fatal("hammer left undecodable files behind")
	}
	if c.Metrics().Counter("cache.evictions").Value() == 0 {
		t.Fatal("no evictions: the budget never churned")
	}
}
