package dispatch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/retry"
)

// Config configures a Dispatcher. Only Backends is load-bearing:
// empty means every Run executes locally, exactly like
// atpg.RunContext.
type Config struct {
	// Backends are the worker backends to fan out across.
	Backends []Backend
	// Metrics receives the dispatch.* counters when non-nil.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives one line per notable event (retry,
	// migration, breaker transition, degrade).
	Logf func(format string, args ...any)
}

// shardsPerBackend is RunShards' default fan-out ratio: over-sharding
// keeps survivors busy when one backend dies.
const shardsPerBackend = 2

// The retry, health and checkpoint policy. None of it can change a
// result -- the merge is byte-identical under any schedule -- so it is
// fixed rather than configurable.
const (
	// maxAttempts bounds remote attempts per shard, first try
	// included; exhaustion falls back to local execution.
	maxAttempts = 3
	// retryBackoff and retryBackoffCap shape the capped exponential
	// delay between a shard's attempts, spread over [d/2, d].
	retryBackoff    = 50 * time.Millisecond
	retryBackoffCap = 2 * time.Second
	// heartbeatEvery is the health-probe interval per backend while a
	// Run is in flight.
	heartbeatEvery = 250 * time.Millisecond
	// breakerThreshold consecutive failures (shard or heartbeat) open
	// a backend's breaker for breakerCooldown.
	breakerThreshold = 3
	breakerCooldown  = 2 * time.Second
	// checkpointEvery is the backend-side partial checkpoint cadence
	// in decided faults: the granularity of migratable work.
	checkpointEvery = 8
)

// Dispatcher fans ATPG fault lists out across backends and merges the
// results deterministically. It is safe for concurrent Runs; backend
// health (breaker state) is shared across them, which is the point --
// one job discovering a dead backend spares the next job the timeout.
type Dispatcher struct {
	cfg      Config
	backends []*backendState
	next     atomic.Uint64 // round-robin cursor

	// heartbeatEvery and checkpointEvery start at the package
	// constants; tests shorten them after New.
	heartbeatEvery  time.Duration
	checkpointEvery int
}

// backendState pairs a backend with its consecutive-failure breaker:
// shard failures and missed heartbeats both feed it, and pick stops
// routing work to the backend while it is open.
type backendState struct {
	b  Backend
	br *retry.Breaker
}

// New returns a Dispatcher over cfg.Backends.
func New(cfg Config) *Dispatcher {
	d := &Dispatcher{cfg: cfg, heartbeatEvery: heartbeatEvery, checkpointEvery: checkpointEvery}
	for _, b := range cfg.Backends {
		d.backends = append(d.backends, &backendState{
			b:  b,
			br: retry.NewBreaker(breakerThreshold, breakerCooldown),
		})
	}
	return d
}

// Backends reports the configured backend names, in order.
func (d *Dispatcher) Backends() []string {
	names := make([]string, len(d.backends))
	for i, bs := range d.backends {
		names[i] = bs.b.Name()
	}
	return names
}

func (d *Dispatcher) count(name string) {
	if d.cfg.Metrics != nil {
		d.cfg.Metrics.Counter(name).Inc()
	}
}

func (d *Dispatcher) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// jitter is the delay before a shard's retry number attempt: the capped
// exponential ladder spread over [d/2, d], so simultaneous shard
// failures do not thunder-herd the surviving backends.
func jitter(attempt int) time.Duration {
	return retry.Spread(retry.Backoff(retryBackoff, retryBackoffCap, attempt))
}

// pick returns a backend whose breaker currently allows work, scanning
// round-robin from a shared cursor; nil when every breaker is open.
func (d *Dispatcher) pick(now time.Time) *backendState {
	n := len(d.backends)
	if n == 0 {
		return nil
	}
	start := int(d.next.Add(1) - 1)
	for i := 0; i < n; i++ {
		bs := d.backends[(start+i)%n]
		if bs.br.Allow(now) {
			return bs
		}
	}
	return nil
}

// shardRun is one shard's mutable fan-out state: its slice of the
// survivor list and the best validated partial checkpoint seen so far,
// tagged with the backend that produced it (for migration accounting).
type shardRun struct {
	idx    int
	faults []fault.Fault

	mu       sync.Mutex
	best     *atpg.Checkpoint
	bestFrom string
}

// observe records a validated partial checkpoint if it extends the
// best one; invalid checkpoints are dropped (and counted as poisoned).
func (s *shardRun) observe(d *Dispatcher, c *netlist.Circuit, opt atpg.Options, from string, ck *atpg.Checkpoint) {
	if ck == nil {
		return
	}
	if !validShardLog(c, s.faults, opt, ck, false) {
		d.count("dispatch.poisoned")
		return
	}
	s.mu.Lock()
	if s.best == nil || len(ck.Decided) > len(s.best.Decided) {
		s.best, s.bestFrom = ck, from
	}
	s.mu.Unlock()
}

func (s *shardRun) resume() (*atpg.Checkpoint, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best, s.bestFrom
}

// validShardLog identity-validates a shard decision log: version,
// circuit/faults/options hashes, positional prefix, and -- when final
// -- completeness. Everything a backend hands back passes through here
// before it can influence the merge.
func validShardLog(c *netlist.Circuit, faults []fault.Fault, opt atpg.Options, ck *atpg.Checkpoint, final bool) bool {
	if ck.Validate(c, faults, opt) != nil {
		return false
	}
	for i, dd := range ck.Decided {
		if i >= len(faults) || faults[i] != dd.Fault {
			return false
		}
	}
	if final && len(ck.Decided) != len(faults) {
		return false
	}
	return true
}

// RunShards executes ATPG for (c, faults, opt) with the random-phase
// survivors fanned out across the configured backends in nShards
// shards (0: two per backend; always clamped to the survivor count),
// returning a Result byte-identical to a serial atpg.Run (modulo
// wall-clock Effort.Time; Result.Parallel is nil as on a serial run).
// The shard count is result-neutral. With no backends configured it
// simply runs locally. A run resuming from a checkpoint at
// opt.Checkpoint.Path shards only the faults the checkpoint left
// undecided. Shard failures retry with capped jittered backoff; a dead
// backend's partial work migrates to a survivor via its last validated
// checkpoint; when no backend is usable the shard degrades to local
// in-process execution, so RunShards only fails on context
// cancellation or invalid input.
func (d *Dispatcher) RunShards(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, opt atpg.Options, nShards int) (*atpg.Result, error) {
	if len(d.backends) == 0 {
		return atpg.RunContext(ctx, c, faults, opt)
	}
	return atpg.RunContextFanOut(ctx, c, faults, opt, func(ctx context.Context, survivors []fault.Fault) (atpg.CandidateLookup, error) {
		return d.fanOut(ctx, c, opt, d.partition(survivors, nShards))
	})
}

// fanOut runs every shard to a complete decision log across the
// backends and indexes the logs by fault for the merge loop.
func (d *Dispatcher) fanOut(ctx context.Context, c *netlist.Circuit, opt atpg.Options, shards []*shardRun) (atpg.CandidateLookup, error) {
	stopHB := d.startHeartbeats(ctx)
	defer stopHB()

	bench := netlist.BenchString(c)
	var wg sync.WaitGroup
	logs := make([][]atpg.DecidedFault, len(shards))
	errs := make([]error, len(shards))
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shardRun) {
			defer wg.Done()
			logs[i], errs[i] = d.runShard(ctx, c, bench, opt, sh)
		}(i, sh)
	}
	wg.Wait()
	lookup := make(map[fault.Fault]atpg.DecidedFault)
	for i, log := range logs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for _, dd := range log {
			lookup[dd.Fault] = dd
		}
	}
	return func(f fault.Fault) (atpg.DecidedFault, bool) {
		dd, ok := lookup[f]
		return dd, ok
	}, nil
}

// partition slices a non-empty survivor list into contiguous shards.
func (d *Dispatcher) partition(survivors []fault.Fault, nShards int) []*shardRun {
	n := nShards
	if n <= 0 {
		n = shardsPerBackend * len(d.backends)
	}
	n = min(n, len(survivors))
	shards := make([]*shardRun, n)
	for i := range shards {
		lo, hi := i*len(survivors)/n, (i+1)*len(survivors)/n
		shards[i] = &shardRun{idx: i, faults: survivors[lo:hi]}
	}
	return shards
}

// startHeartbeats probes every backend at heartbeatEvery for the
// duration of a Run, feeding failures into the breakers so a dead
// backend is benched even between shard attempts. Returns a stop func.
func (d *Dispatcher) startHeartbeats(ctx context.Context) func() {
	hctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, bs := range d.backends {
		wg.Add(1)
		go func(bs *backendState) {
			defer wg.Done()
			tick := time.NewTicker(d.heartbeatEvery)
			defer tick.Stop()
			for {
				select {
				case <-hctx.Done():
					return
				case <-tick.C:
				}
				pctx, pcancel := context.WithTimeout(hctx, d.heartbeatEvery)
				err := bs.b.Healthy(pctx)
				pcancel()
				if hctx.Err() != nil {
					return
				}
				if err != nil {
					if bs.br.Failure(time.Now()) {
						d.count("dispatch.breaker_open")
						d.logf("dispatch: breaker open for %s (heartbeat: %v)", bs.b.Name(), err)
					}
				}
				// Heartbeat success deliberately does not close the
				// breaker: a backend that answers /healthz but fails or
				// poisons shards must stay benched until its cooldown
				// half-open probe succeeds end to end.
			}
		}(bs)
	}
	return func() { cancel(); wg.Wait() }
}

// runShard drives one shard through the retry ladder: pick a live
// backend, run with the best checkpoint so far as the resume point
// (migration when it came from a different backend), back off and
// retry on failure, and degrade to local execution when attempts or
// backends are exhausted.
func (d *Dispatcher) runShard(ctx context.Context, c *netlist.Circuit, bench string, opt atpg.Options, sh *shardRun) ([]atpg.DecidedFault, error) {
	d.count("dispatch.shards")
	spec := ShardSpec{
		Circuit:         c,
		Bench:           bench,
		Faults:          sh.faults,
		Opt:             opt,
		CheckpointEvery: d.checkpointEvery,
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			d.count("dispatch.retries")
			delay := jitter(attempt)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
		}
		bs := d.pick(time.Now())
		if bs == nil {
			break // every breaker open: degrade now
		}
		resume, from := sh.resume()
		spec.Resume = resume
		if resume != nil && from != "" && from != bs.b.Name() {
			d.count("dispatch.migrations")
			d.logf("dispatch: shard %d migrates %d decided faults from %s to %s",
				sh.idx, len(resume.Decided), from, bs.b.Name())
		}
		log, err := d.attempt(ctx, bs, spec, sh)
		if err == nil {
			bs.br.Success()
			return log, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if bs.br.Failure(time.Now()) {
			d.count("dispatch.breaker_open")
			d.logf("dispatch: breaker open for %s (%v)", bs.b.Name(), err)
		}
		d.logf("dispatch: shard %d attempt %d on %s failed: %v", sh.idx, attempt+1, bs.b.Name(), err)
	}
	// Degraded mode: no healthy backend took the shard (or every
	// attempt failed). Run it in-process, resuming from the best
	// checkpoint so remote work done so far is still not recomputed.
	d.count("dispatch.degraded")
	d.logf("dispatch: shard %d degrades to local execution", sh.idx)
	resume, _ := sh.resume()
	spec.Resume = resume
	log, err := NewLocal("degraded").Run(ctx, spec, nil)
	if err != nil {
		return nil, fmt.Errorf("shard %d: degraded local execution: %w", sh.idx, err)
	}
	if ck := atpg.ShardCheckpoint(c, sh.faults, opt, log); !validShardLog(c, sh.faults, opt, ck, true) {
		return nil, fmt.Errorf("shard %d: degraded local execution produced an invalid log", sh.idx)
	}
	return log, nil
}

// attempt runs the shard once on one backend, validating the final log
// before accepting it. Partial checkpoints stream into sh via observe.
func (d *Dispatcher) attempt(ctx context.Context, bs *backendState, spec ShardSpec, sh *shardRun) ([]atpg.DecidedFault, error) {
	name := bs.b.Name()
	log, err := bs.b.Run(ctx, spec, func(ck *atpg.Checkpoint) {
		sh.observe(d, spec.Circuit, spec.Opt, name, ck)
	})
	if err != nil {
		// Whatever the backend decided before dying is still usable:
		// fold the returned prefix in alongside streamed checkpoints.
		if len(log) > 0 {
			sh.observe(d, spec.Circuit, spec.Opt, name,
				atpg.ShardCheckpoint(spec.Circuit, spec.Faults, spec.Opt, log))
		}
		return nil, err
	}
	final := atpg.ShardCheckpoint(spec.Circuit, spec.Faults, spec.Opt, log)
	if !validShardLog(spec.Circuit, spec.Faults, spec.Opt, final, true) {
		d.count("dispatch.poisoned")
		return nil, fmt.Errorf("backend %s returned an invalid shard log", name)
	}
	sh.observe(d, spec.Circuit, spec.Opt, name, final)
	return log, nil
}
