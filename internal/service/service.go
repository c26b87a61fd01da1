// Package service is the job-orchestration layer over the retest
// library: clients submit typed retime-for-test jobs (see Kind), a
// bounded worker pool runs them under per-job context deadlines, and an
// in-memory store answers status polls. Results are produced by the
// same library calls the CLI tools make, with the same deterministic
// options, so a job's payload is bit-identical to the equivalent direct
// call. cmd/servd exposes this package over HTTP.
//
// The pipeline is crash-safe and cancellable: an optional append-only
// job journal (see journal.go) records every lifecycle transition and
// is replayed on Open, re-queueing work that was in flight when the
// process died; Cancel interrupts a queued or running job within one
// cancellation-check interval of the underlying library call; Shutdown
// drains gracefully.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/dispatch"
	"repro/internal/failpoint"
	"repro/internal/httpmw"
	"repro/internal/iofault"
	"repro/internal/logger"
	"repro/internal/metrics"
	"repro/internal/resultcache"
	"repro/internal/retry"
)

// Config tunes a Service. Zero values pick sensible defaults.
type Config struct {
	// Workers is the pool size; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// Submit fails fast with ErrQueueFull beyond it. Default 64.
	QueueDepth int
	// DefaultTimeout bounds jobs that do not set Request.TimeoutMS.
	// Default 60s.
	DefaultTimeout time.Duration
	// Metrics receives job and stage instrumentation; a private
	// registry is created when nil.
	Metrics *metrics.Registry

	// JournalPath names the append-only JSON-lines job journal. Empty
	// disables durability (the seed behavior: jobs live only in
	// memory). With a journal, Open replays it: terminal jobs reappear
	// in the store with their results, jobs that were queued or running
	// at crash time are re-queued and re-run.
	JournalPath string
	// SyncJournal fsyncs the journal after every entry. Off by default:
	// the write-behind window is one OS page cache flush.
	SyncJournal bool

	// CacheBytes bounds the in-memory tier of the request-keyed result
	// cache: identical submissions (same bench text, kind and
	// result-affecting fields) are answered from the first run's stored
	// payload, and concurrent identical submissions run the pipeline
	// once (single-flight). 0 selects resultcache.DefaultMaxBytes;
	// negative disables caching entirely (the pre-cache behavior: every
	// job recomputes).
	CacheBytes int64
	// CacheDir enables the cache's durable tier: one validated,
	// checksummed entry file per key, written atomically beside wherever
	// the caller points it (conventionally next to the job journal).
	// Open sweeps torn residue from it. Empty keeps the cache
	// memory-only.
	CacheDir string

	// Backends lists worker base URLs (cmd/workerd) for distributed
	// ATPG fan-out. Empty keeps every job local. A job opts in with
	// ATPGSpec.Backends; results are byte-identical either way, so
	// distribution is purely a latency/robustness knob.
	Backends []string

	// WatchdogWindow enables the stuck-progress watchdog: a running job
	// whose last progress heartbeat (stage boundaries and checkpoint
	// writes) is older than the window is cancelled and requeued
	// through the retry/backoff ladder, resuming from its last durable
	// checkpoint. 0 (the default) disables the watchdog. Size it to a
	// comfortable multiple of the longest healthy stage: the heartbeats
	// come from stage boundaries, so a single legitimately long stage
	// must fit inside the window. The watchdog scans every
	// WatchdogWindow/4 (at least every 10ms).
	WatchdogWindow time.Duration

	// Logger, when non-nil, receives job lifecycle records tagged with
	// the originating HTTP request ID (see SubmitWithRequestID) and the
	// dispatcher's retry/migration notes, so a distributed job's whole
	// story is greppable by one ID across servd and its workers.
	Logger *logger.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// The retry policy for jobs that crashed the process or stalled. It
// cannot change a result (a retried job is byte-identical), so it is
// fixed.
const (
	// maxAttempts bounds how many times a job may be started, across
	// crashes and watchdog requeues, before it fails for good.
	maxAttempts = 3
	// retryBackoff is the base delay before re-running a job that was
	// already running when the process died or stalled: retry k waits
	// retryBackoff << (k-1), capped at retryBackoffCap and spread over
	// [d/2, d], so a job that crashes the server on every attempt
	// cannot crash-loop it at full speed.
	retryBackoff    = 100 * time.Millisecond
	retryBackoffCap = 5 * time.Second
)

// retryDelay is the jittered backoff before retry number attempt.
func retryDelay(attempt int) time.Duration {
	return retry.Spread(retry.Backoff(retryBackoff, retryBackoffCap, attempt))
}

// Submission errors.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrClosed    = errors.New("service: shut down")
)

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("service: no such job")

// errRetryAbandoned fails recovered jobs whose retry never got to run
// because the service shut down first.
var errRetryAbandoned = errors.New("service: shut down before recovered job re-ran")

// Service owns the worker pool, the job store and the journal.
type Service struct {
	cfg   Config
	reg   *metrics.Registry
	log   *logger.Logger // nil-safe; records job lifecycle by request ID
	base  context.Context
	stop  context.CancelFunc
	queue chan *Job
	wg    sync.WaitGroup
	jrnl  *journal
	cache *resultcache.Cache
	disp  *dispatch.Dispatcher // nil without configured backends

	// attempts tracks every compute goroutine runJob starts, including
	// ones a stalled attempt abandoned; shutdown joins them so none
	// outlives Close.
	attempts sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int64
	closed bool
	timers map[string]*time.Timer // recovered jobs waiting out a retry backoff
	done   chan struct{}          // closed once the pool has fully drained
	wdDone chan struct{}          // closed when the watchdog loop exits; nil when disabled

	// checkpointEvery is the durable ATPG checkpoint cadence in decided
	// faults for journaled ATPG and DeriveTests jobs: each such job
	// keeps a <job-id>.ckpt file next to the journal, and a retry after
	// a crash resumes from it instead of restarting (byte-identical
	// result either way). It starts at atpg.DefaultCheckpointEvery;
	// tests shorten it after New. Without a journal there are no
	// checkpoints.
	checkpointEvery int
}

// New starts a service with cfg.Workers worker goroutines. It panics
// when the configured journal cannot be opened or replayed; use Open to
// handle that error.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a service. With cfg.JournalPath set it first replays the
// journal: every job the previous process accepted reappears in the
// store, and the ones that never reached a terminal state are re-queued
// (subject to maxAttempts, with capped exponential backoff for jobs
// that were already running -- they may have crashed the process). The
// number of re-queued jobs is exposed as the jobs.recovered counter.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	base, stop := context.WithCancel(context.Background())
	s := &Service{
		cfg:    cfg,
		reg:    cfg.Metrics,
		log:    cfg.Logger,
		base:   base,
		stop:   stop,
		jobs:   make(map[string]*Job),
		timers: make(map[string]*time.Timer),
		done:   make(chan struct{}),

		checkpointEvery: atpg.DefaultCheckpointEvery,
	}
	if len(cfg.Backends) > 0 {
		backends := make([]dispatch.Backend, 0, len(cfg.Backends))
		for _, u := range cfg.Backends {
			backends = append(backends, dispatch.NewHTTPBackend(u))
		}
		dcfg := dispatch.Config{Backends: backends, Metrics: s.reg}
		if s.log != nil {
			// Dispatcher retry/migration notes land in the ring at Info.
			dcfg.Logf = s.log.Infof
		}
		s.disp = dispatch.New(dcfg)
	}

	if cfg.CacheBytes >= 0 {
		ccfg := resultcache.Config{
			MaxBytes: cfg.CacheBytes,
			Dir:      cfg.CacheDir,
			Metrics:  s.reg,
		}
		if s.log != nil {
			// Disk-tier breaker transitions land in the ring at Warn.
			ccfg.Logf = s.log.Warnf
		}
		s.cache = resultcache.New(ccfg)
		// Recovery for the durable tier: collect torn .tmp residue and
		// entries that no longer validate before anything consults them.
		if cfg.CacheDir != "" {
			s.cache.Sweep()
		}
	}

	var requeue []*Job
	var backoffs []time.Duration
	if cfg.JournalPath != "" {
		var err error
		requeue, backoffs, err = s.recover(cfg.JournalPath)
		if err != nil {
			stop()
			return nil, err
		}
	}

	// Reserve queue capacity for every recovered job so re-queueing can
	// never collide with fresh submissions racing in after startup.
	s.queue = make(chan *Job, cfg.QueueDepth+len(requeue))
	for i, j := range requeue {
		if backoffs[i] <= 0 {
			s.queue <- j
			s.reg.Gauge("queue.depth").Add(1)
			continue
		}
		s.scheduleRetry(j, backoffs[i])
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.WatchdogWindow > 0 {
		s.wdDone = make(chan struct{})
		go s.watchdog()
	}
	return s, nil
}

// recover replays the journal at path, populates the job store, opens
// the journal for appending, and returns the jobs to re-queue with
// their per-job start delays.
func (s *Service) recover(path string) (requeue []*Job, backoffs []time.Duration, err error) {
	f, err := os.Open(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("service: open journal for replay: %w", err)
	}
	var replayed []*replayedJob
	var maxID int64
	var skipped int
	if err == nil {
		replayed, maxID, skipped = replayJournal(f)
		f.Close()
	}
	s.jrnl, err = openJournal(path, s.cfg.SyncJournal, s.reg, s.log)
	if err != nil {
		return nil, nil, err
	}
	s.nextID = maxID
	if skipped > 0 {
		s.reg.Counter("journal.skipped_lines").Add(int64(skipped))
	}

	var gaveUp []*Job
	for _, r := range replayed {
		j := &Job{
			id:      r.ID,
			req:     *r.Req,
			reqID:   r.ReqID,
			status:  r.Status,
			err:     r.Error,
			result:  r.Result,
			created: r.Created,
			attempt: r.Attempt,
			done:    make(chan struct{}),
		}
		s.jobs[j.id] = j
		if r.Status.Terminal() {
			close(j.done)
			continue
		}
		if r.Attempt >= maxAttempts {
			gaveUp = append(gaveUp, j)
			continue
		}
		requeue = append(requeue, j)
		// Never-started jobs re-queue immediately; ones that were
		// running when the process died wait out a capped exponential
		// backoff, since they may be what killed it.
		var delay time.Duration
		if r.Attempt > 0 {
			// Jitter over [delay/2, delay]: recovered jobs that crashed
			// together should not all re-fire on the same tick.
			delay = retryDelay(r.Attempt)
		}
		backoffs = append(backoffs, delay)
	}
	for _, j := range gaveUp {
		s.finishJob(j, nil, fmt.Errorf("service: gave up after %d attempts", j.attempt))
	}
	if n := len(requeue); n > 0 {
		s.reg.Counter("jobs.recovered").Add(int64(n))
	}
	s.sweepCheckpoints()
	return requeue, backoffs, nil
}

// checkpointPath names a job's durable ATPG checkpoint file, kept next
// to the journal; empty when the service runs without a journal.
func (s *Service) checkpointPath(id string) string {
	if s.cfg.JournalPath == "" {
		return ""
	}
	return filepath.Join(filepath.Dir(s.cfg.JournalPath), id+".ckpt")
}

// checkpointConfig builds the per-job checkpoint wiring: the durable
// path, the configured cadence, and the atpg.checkpoint.* metrics.
func (s *Service) checkpointConfig(j *Job) atpg.CheckpointConfig {
	path := s.checkpointPath(j.id)
	if path == "" {
		return atpg.CheckpointConfig{}
	}
	return atpg.CheckpointConfig{
		Path:  path,
		Every: s.checkpointEvery,
		OnWrite: func(_ *atpg.Checkpoint, err error) {
			// Either outcome is a heartbeat: the cadence only fires
			// because the engine decided more faults since the last one.
			j.touchProgress()
			if err != nil {
				s.reg.Counter("atpg.checkpoint.errors").Inc()
			} else {
				s.reg.Counter("atpg.checkpoint.written").Inc()
			}
		},
		OnResume: func(resumed bool, err error) {
			switch {
			case resumed:
				s.reg.Counter("atpg.checkpoint.resumed").Inc()
			case err != nil:
				s.reg.Counter("atpg.checkpoint.discarded").Inc()
			}
		},
	}
}

// removeCheckpoint deletes a terminal job's checkpoint file and any
// .tmp residue. The service.checkpoint.before-remove failpoint lets
// chaos tests simulate a crash that journals the terminal state but
// dies before this cleanup; recovery's orphan sweep then collects it.
func (s *Service) removeCheckpoint(id string) {
	path := s.checkpointPath(id)
	if path == "" {
		return
	}
	if failpoint.Inject("service.checkpoint.before-remove") != nil {
		return
	}
	iofault.Discard(path)
}

// sweepCheckpoints runs at recovery, after the journal replay settled
// every job's fate: it deletes checkpoint residue that must not be
// trusted -- *.ckpt.tmp torn-write leftovers, and *.ckpt files whose
// job is unknown to the journal or already terminal (a crash landed
// between the terminal journal entry and the file cleanup). Files of
// jobs being re-queued survive: they are exactly what the retries
// resume from. Discarded .ckpt files count toward
// atpg.checkpoint.discarded; an orphaned file can therefore never
// wedge recovery, at worst it costs one clean restart of that job.
func (s *Service) sweepCheckpoints() {
	dir := filepath.Dir(s.cfg.JournalPath)
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.ckpt.tmp"))
	for _, p := range tmps {
		os.Remove(p)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	discarded := 0
	for _, p := range files {
		id := strings.TrimSuffix(filepath.Base(p), ".ckpt")
		if j, ok := s.jobs[id]; ok && !j.status.Terminal() {
			continue
		}
		os.Remove(p)
		discarded++
	}
	if discarded > 0 {
		s.reg.Counter("atpg.checkpoint.discarded").Add(int64(discarded))
	}
}

// Metrics returns the service's registry (for the /metrics endpoint).
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// RetryAfter estimates how long a client shed with 429 should wait
// before resubmitting, from live backlog instead of a constant: the
// queue ahead of the client drains in roughly ceil(depth/workers)
// waves of one observed p95 job latency each, plus the wave the
// resubmission itself rides. Before any job has finished (no latency
// samples yet) the p95 falls back to 1s. The estimate is clamped to
// [1s, 60s] -- never so small that shed clients hammer an overloaded
// server, never so large that they abandon a queue that is actually
// draining -- and rounded up to whole seconds, since the Retry-After
// header carries integral seconds.
func (s *Service) RetryAfter() time.Duration {
	p95 := s.reg.Histogram("jobs.latency").Quantile(0.95)
	if p95 <= 0 {
		p95 = time.Second
	}
	depth := s.reg.Gauge("queue.depth").Value()
	if depth < 0 {
		depth = 0
	}
	w := int64(s.cfg.Workers)
	waves := (depth+w-1)/w + 1
	d := time.Duration(waves) * p95
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	if r := d % time.Second; r != 0 {
		d += time.Second - r
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Submit validates and enqueues a job, returning its ID. It fails fast
// with ErrQueueFull when the queue is at capacity and ErrClosed after
// Close.
func (s *Service) Submit(req Request) (string, error) {
	return s.SubmitWithRequestID(req, "")
}

// SubmitWithRequestID is Submit tagged with the HTTP request ID that
// carried the submission. The ID is journaled with the job (so it
// survives recovery), shown in job views, and threaded through the
// job's context into dispatch backend calls -- a shard's worker-side
// logs carry the same ID as the servd access line that accepted the
// job.
func (s *Service) SubmitWithRequestID(req Request, reqID string) (string, error) {
	if err := req.Validate(); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrClosed
	}
	s.nextID++
	j := &Job{
		id:      fmt.Sprintf("job-%06d", s.nextID),
		req:     req,
		reqID:   reqID,
		status:  StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	j.submitted.Add(1)
	select {
	case s.queue <- j:
	default:
		s.nextID--
		s.mu.Unlock()
		return "", ErrQueueFull
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.journalAppend(journalEntry{Event: evSubmit, ID: j.id, Req: &j.req, ReqID: reqID})
	j.submitted.Done()
	s.log.Infof("id=%s job=%s submitted kind=%s", reqID, j.id, req.Kind)
	s.reg.Counter("jobs.submitted." + string(req.Kind)).Inc()
	s.reg.Gauge("queue.depth").Add(1)
	return j.id, nil
}

// Get returns a snapshot of the job, or ErrNotFound.
func (s *Service) Get(id string) (View, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return View{}, ErrNotFound
	}
	return j.View(), nil
}

// Cancel requests cancellation of the job: a queued job is retired
// without running, a running one is interrupted at its next
// cancellation check (within one fsim block or a few hundred PODEM
// decisions), a job waiting out a recovery backoff is retired
// immediately. Cancelling a job already in a terminal state is a no-op.
// The returned view is a snapshot; poll Get for the terminal state.
func (s *Service) Cancel(id string) (View, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var timer *time.Timer
	if ok {
		timer = s.timers[id]
		delete(s.timers, id)
	}
	s.mu.Unlock()
	if !ok {
		return View{}, ErrNotFound
	}
	if timer != nil {
		timer.Stop()
	}
	first, queued := j.requestCancel()
	if first {
		s.reg.Counter("jobs.cancel_requested").Inc()
	}
	if queued {
		// The job never started and now never will (begin refuses once
		// cancelRequested is set): retire it here instead of waiting for
		// a worker to dequeue and discard it. finishJob is idempotent,
		// so the worker's later no-op finish cannot double-count.
		s.finishJob(j, nil, context.Canceled)
	}
	return j.View(), nil
}

// List snapshots every job in submission order (ascending numeric job
// ID, the order Submit assigned them). The sort is numeric, not
// lexicographic: "job-%06d" IDs overflow their zero padding past
// 999999, where string order would interleave old and new jobs.
func (s *Service) List() []View {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	views := make([]View, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	sort.Slice(views, func(i, k int) bool {
		ni, nk := jobIDNumber(views[i].ID), jobIDNumber(views[k].ID)
		if ni != nk {
			return ni < nk
		}
		return views[i].ID < views[k].ID
	})
	return views
}

// Wait blocks until the job reaches a terminal state or the context
// expires; a convenience for tests and synchronous clients.
func (s *Service) Wait(ctx context.Context, id string) (View, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return View{}, ErrNotFound
	}
	select {
	case <-j.done:
		return j.View(), nil
	case <-ctx.Done():
		// A job that finished as the context expired is still reported
		// as finished.
		v := j.View()
		if v.Status.Terminal() {
			return v, nil
		}
		return v, ctx.Err()
	}
}

// Close stops accepting jobs, cancels the running ones and waits for
// the workers to drain. Jobs still queued fail fast with a cancelled
// context.
func (s *Service) Close() {
	s.shutdown(nil)
}

// Shutdown stops accepting jobs and drains gracefully: queued and
// running jobs keep running until done or until ctx expires, at which
// point the stragglers are cancelled (and, with a journal, re-queued by
// the next Open). It returns ctx's error when the drain was cut short.
func (s *Service) Shutdown(ctx context.Context) error {
	return s.shutdown(ctx)
}

func (s *Service) shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done // another shutdown owns the drain; wait for it
		return nil
	}
	s.closed = true
	timers := s.timers
	s.timers = make(map[string]*time.Timer)
	s.mu.Unlock()

	// Jobs parked on retry backoff will never reach the queue now.
	for id, t := range timers {
		if t.Stop() {
			s.mu.Lock()
			j := s.jobs[id]
			s.mu.Unlock()
			s.finishJob(j, nil, errRetryAbandoned)
		}
	}

	if ctx == nil {
		s.stop() // cancel running jobs immediately
	}
	close(s.queue)
	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	var err error
	if ctx != nil {
		select {
		case <-drained:
		case <-ctx.Done():
			err = ctx.Err()
			s.stop()
			<-drained
		}
	} else {
		<-drained
	}
	s.stop()
	s.attempts.Wait() // abandoned attempts unwind into the cancelled base context
	if s.wdDone != nil {
		<-s.wdDone // no scan may trip jobs once shutdown returns
	}
	if s.jrnl != nil {
		s.jrnl.Close()
	}
	close(s.done)
	return err
}

// scheduleRetry parks a recovered job until its backoff elapses, then
// feeds it to the queue. Must not be called after close.
func (s *Service) scheduleRetry(j *Job, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timers[j.id] = time.AfterFunc(delay, func() { s.retryEnqueue(j) })
}

// retryEnqueue moves a recovered job from its timer to the queue. When
// the queue is momentarily full (fresh submissions took the capacity)
// it backs off another round rather than blocking the timer goroutine.
func (s *Service) retryEnqueue(j *Job) {
	s.mu.Lock()
	delete(s.timers, j.id)
	if s.closed {
		s.mu.Unlock()
		s.finishJob(j, nil, errRetryAbandoned)
		return
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
		s.reg.Gauge("queue.depth").Add(1)
	default:
		s.timers[j.id] = time.AfterFunc(retry.Spread(retryBackoff), func() { s.retryEnqueue(j) })
		s.mu.Unlock()
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.reg.Gauge("queue.depth").Add(-1)
		s.runJob(j)
	}
}

// runJob executes one job attempt under its deadline. The computation
// runs on a child goroutine so a panicking stage (chaos-injected or
// real) unwinds into a failed job instead of taking the worker down;
// the worker *joins* that goroutine -- cancellation and deadlines
// propagate through the library's cooperative checks, so an
// interrupted stage returns within one check interval and nothing
// leaks.
func (s *Service) runJob(j *Job) {
	timeout := s.cfg.DefaultTimeout
	if j.req.TimeoutMS > 0 {
		timeout = time.Duration(j.req.TimeoutMS) * time.Millisecond
	}
	// The request ID rides the job context so dispatch backend calls
	// stamp it on their shard submissions.
	ctx, cancel := context.WithTimeout(httpmw.ContextWithID(s.base, j.reqID), timeout)
	defer cancel()

	j.submitted.Wait()
	if !j.begin(cancel) {
		// Cancelled while queued: retire without running.
		s.finishJob(j, nil, context.Canceled)
		return
	}
	s.journalAppend(journalEntry{Event: evStart, ID: j.id, Attempt: j.attempt})
	s.log.Debugf("id=%s job=%s attempt=%d started", j.reqID, j.id, j.attempt)
	s.reg.Gauge("workers.busy").Add(1)
	defer s.reg.Gauge("workers.busy").Add(-1)

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	s.attempts.Add(1)
	go func() {
		defer s.attempts.Done()
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{nil, fmt.Errorf("service: job panicked: %v", r)}
			}
		}()
		res, err := s.execute(ctx, j)
		done <- outcome{res, err}
	}()

	select {
	case o := <-done:
		if o.err != nil && j.stalledAttempt() {
			// The watchdog tripped and the computation unwound into the
			// cancelled context before this select saw the stall channel:
			// same outcome as the stall branch, so requeue, don't fail. A
			// stalled attempt that nonetheless *finished* (o.err == nil,
			// the trip raced a real completion) falls through and wins.
			s.requeueOrFail(j)
			return
		}
		// Deadline-expired stages surface context.Canceled from deep in
		// the library when the deadline fired between stage checks;
		// normalize to the context's own error so clients always see
		// DeadlineExceeded.
		if o.err != nil && ctx.Err() != nil && !j.cancelPending() {
			o.err = ctx.Err()
		}
		s.finishJob(j, o.res, o.err)
	case <-j.stallChan():
		// The watchdog declared this attempt stuck. Abandon the wedged
		// computation -- done is buffered, so the goroutine cannot leak
		// once it unwinds into its cancelled context, and shutdown joins
		// it through s.attempts -- and route the job back through the
		// retry ladder; the next attempt resumes from the last durable
		// checkpoint.
		s.requeueOrFail(j)
	}
}

// finishJob retires a job: terminal status, metrics, journal entry,
// checkpoint cleanup. The job's lock is held throughout, so a poller
// never sees a terminal job whose journal entry and cleanup are still
// pending. Safe to call twice (the second call is a no-op) and with a
// nil job.
func (s *Service) finishJob(j *Job, res *Result, err error) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	status, dur, changed := j.finishLocked(res, err)
	if !changed {
		return
	}
	kind := string(j.req.Kind)
	switch status {
	case StatusDone:
		s.reg.Counter("jobs.done." + kind).Inc()
		s.journalAppend(journalEntry{Event: evDone, ID: j.id, Result: res})
	case StatusCancelled:
		s.reg.Counter("jobs.cancelled." + kind).Inc()
		s.journalAppend(journalEntry{Event: evCancelled, ID: j.id})
	default:
		s.reg.Counter("jobs.failed." + kind).Inc()
		s.journalAppend(journalEntry{Event: evFailed, ID: j.id, Error: err.Error()})
	}
	// A job that reached a terminal state will never resume; its
	// checkpoint (if any) is dead weight.
	s.removeCheckpoint(j.id)
	s.reg.Histogram("jobs.latency." + kind).Observe(dur)
	// The kind-agnostic aggregate feeds the RetryAfter backlog estimate.
	s.reg.Histogram("jobs.latency").Observe(dur)
	lv := logger.Info
	if status == StatusFailed {
		lv = logger.Warn
	}
	s.log.Logf(lv, "id=%s job=%s %s dur=%s", j.reqID, j.id, status, dur.Round(time.Microsecond))
}

// journalAppend best-effort commits a lifecycle transition. Journal
// write failures degrade durability, not availability: the job keeps
// its in-memory state and the failure is counted.
func (s *Service) journalAppend(e journalEntry) {
	if s.jrnl == nil {
		return
	}
	e.Time = time.Now()
	if err := s.jrnl.append(e); err != nil {
		s.reg.Counter("journal.errors").Inc()
	}
}
