package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
)

// Kind selects which retime-for-test workload a job runs. DeriveTests
// is the paper's full Fig. 6 pipeline as a single job: retime the
// submitted implementation for testability, ATPG on the easy circuit,
// map the test set back with the Theorem 4 prefix, and fault-simulate
// the derived set on the implementation.
type Kind string

// Job kinds.
const (
	KindRetime      Kind = "retime"
	KindATPG        Kind = "atpg"
	KindFaultSim    Kind = "fault_sim"
	KindDeriveTests Kind = "derive_tests"
)

// Kinds lists every valid job kind.
func Kinds() []Kind { return []Kind{KindRetime, KindATPG, KindFaultSim, KindDeriveTests} }

func validKind(k Kind) bool {
	for _, v := range Kinds() {
		if k == v {
			return true
		}
	}
	return false
}

// Status is a job's lifecycle state.
type Status string

// Job statuses. Done, failed and cancelled are terminal.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final: the job will never run
// again and its view will never change.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Request describes one job. Circuits travel as ISCAS-89 bench text
// (the internal/netlist reader parses them inside the worker), so the
// wire format is exactly what the CLI tools consume.
type Request struct {
	Kind  Kind   `json:"kind"`
	Bench string `json:"bench"`

	// Mode selects the retime objective for KindRetime:
	// "period" (default) or "registers".
	Mode string `json:"mode,omitempty"`

	// ATPG tunes the test generator for KindATPG and KindDeriveTests;
	// nil means atpg.DefaultOptions.
	ATPG *ATPGSpec `json:"atpg,omitempty"`

	// Tests is the vector sequence for KindFaultSim, in sim.ParseSeq
	// notation ("001,000").
	Tests string `json:"tests,omitempty"`

	// Fill selects the Theorem 4 prefix fill for KindDeriveTests:
	// "zeros" (default), "ones" or "random"; Seed feeds "random".
	Fill string `json:"fill,omitempty"`
	Seed int64  `json:"seed,omitempty"`

	// TimeoutMS bounds the job's wall-clock run time in milliseconds;
	// 0 means the service default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Validate rejects requests the worker could never run. Parse errors in
// the bench text itself surface later as a failed job, not here: they
// require the full reader, which belongs on the worker.
func (r *Request) Validate() error {
	if !validKind(r.Kind) {
		return fmt.Errorf("service: unknown job kind %q", r.Kind)
	}
	if r.Bench == "" {
		return fmt.Errorf("service: empty bench circuit")
	}
	switch r.Mode {
	case "", "period", "registers":
	default:
		return fmt.Errorf("service: unknown retime mode %q", r.Mode)
	}
	if _, err := parseFill(r.Fill); err != nil {
		return err
	}
	if r.Kind == KindFaultSim {
		if r.Tests == "" {
			return fmt.Errorf("service: fault_sim job needs a test sequence")
		}
		for i, c := range r.Tests {
			if !strings.ContainsRune("01xX, \t", c) {
				return fmt.Errorf("service: fault_sim tests: bad character %q at byte %d (want 0, 1 or x, vectors separated by commas, spaces or tabs)", c, i)
			}
		}
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("service: negative timeout")
	}
	if r.ATPG != nil && r.ATPG.Workers < 0 {
		return fmt.Errorf("service: negative workers")
	}
	if r.ATPG != nil && r.ATPG.Backends < 0 {
		return fmt.Errorf("service: negative backends")
	}
	return nil
}

func parseFill(s string) (core.PrefixFill, error) {
	switch s {
	case "", "zeros":
		return core.FillZeros, nil
	case "ones":
		return core.FillOnes, nil
	case "random":
		return core.FillRandom, nil
	}
	return core.FillZeros, fmt.Errorf("service: unknown prefix fill %q", s)
}

// ATPGSpec is the JSON-friendly subset of atpg.Options a client may
// override; zero-valued fields keep the library defaults, so results
// stay identical to direct atpg.Run calls with atpg.DefaultOptions.
type ATPGSpec struct {
	MaxFrames        int   `json:"max_frames,omitempty"`
	MaxBacktracks    int   `json:"max_backtracks,omitempty"`
	MaxEvalsPerFault int64 `json:"max_evals_per_fault,omitempty"`
	MaxEvalsTotal    int64 `json:"max_evals_total,omitempty"`
	RandomPhase      *bool `json:"random_phase,omitempty"`
	RandomSeed       int64 `json:"random_seed,omitempty"`
	// Workers > 1 selects the fault-sharded parallel engine, clamped to
	// the service's GOMAXPROCS: each speculator owns a PODEM engine, so
	// more than one per processor only costs memory. Output is byte-identical at every worker count, so this
	// only trades CPU for latency; it is absent from the result and the
	// cache key.
	Workers int `json:"workers,omitempty"`
	// Backends > 0 asks the service to fan the fault list out across
	// its configured worker backends (servd -backend), sharded that
	// many ways; it supersedes Workers for the run. Output stays
	// byte-identical to local execution under every shard count,
	// backend failure and work migration, so this too is purely a
	// latency/robustness knob. Ignored when the service has no
	// backends.
	Backends int `json:"backends,omitempty"`
}

// Options resolves the spec against the library defaults.
func (s *ATPGSpec) Options() atpg.Options {
	opt := atpg.DefaultOptions()
	if s == nil {
		return opt
	}
	if s.MaxFrames > 0 {
		opt.MaxFrames = s.MaxFrames
	}
	if s.MaxBacktracks > 0 {
		opt.MaxBacktracks = s.MaxBacktracks
	}
	if s.MaxEvalsPerFault > 0 {
		opt.MaxEvalsPerFault = s.MaxEvalsPerFault
	}
	if s.MaxEvalsTotal > 0 {
		opt.MaxEvalsTotal = s.MaxEvalsTotal
	}
	if s.RandomPhase != nil {
		opt.RandomPhase = *s.RandomPhase
	}
	if s.RandomSeed != 0 {
		opt.RandomSeed = s.RandomSeed
	}
	if s.Workers > 0 {
		opt.Workers = min(s.Workers, runtime.GOMAXPROCS(0))
	}
	return opt
}

// Result is a completed job's payload; exactly one sub-struct is set,
// matching the job kind.
type Result struct {
	Retime   *RetimeResult   `json:"retime,omitempty"`
	ATPG     *ATPGResult     `json:"atpg,omitempty"`
	FaultSim *FaultSimResult `json:"fault_sim,omitempty"`
	Derive   *DeriveResult   `json:"derive_tests,omitempty"`
}

// RetimeResult reports a retiming job: the retimed circuit in bench
// format, the objective metric before and after, and the paper's
// prefix lengths (Theorem 4 tests, Theorem 2 fault-free sync).
type RetimeResult struct {
	Bench           string `json:"bench"`
	PeriodBefore    int    `json:"period_before,omitempty"`
	PeriodAfter     int    `json:"period_after,omitempty"`
	RegistersBefore int    `json:"registers_before,omitempty"`
	RegistersAfter  int    `json:"registers_after,omitempty"`
	PrefixTests     int    `json:"prefix_tests"`
	PrefixSync      int    `json:"prefix_sync"`
}

// ATPGResult reports a test-generation job.
type ATPGResult struct {
	Faults          int      `json:"faults"`
	Detected        int      `json:"detected"`
	Redundant       int      `json:"redundant"`
	Aborted         int      `json:"aborted"`
	FaultCoverage   float64  `json:"fault_coverage"`
	FaultEfficiency float64  `json:"fault_efficiency"`
	Vectors         []string `json:"vectors"`
	Sequences       int      `json:"sequences"`
	Evals           int64    `json:"evals"`
}

// FaultSimResult reports a fault-simulation job.
type FaultSimResult struct {
	Faults     int      `json:"faults"`
	Detected   int      `json:"detected"`
	Coverage   float64  `json:"coverage"`
	Vectors    int      `json:"vectors"`
	Undetected []string `json:"undetected,omitempty"`
}

// DeriveResult reports a Fig. 6 retime-for-testability job.
type DeriveResult struct {
	EasyDFFs     int      `json:"easy_dffs"`
	ImplDFFs     int      `json:"impl_dffs"`
	Prefix       int      `json:"prefix"`
	EasyCoverage float64  `json:"easy_coverage"`
	Derived      []string `json:"derived"`
	ImplFaults   int      `json:"impl_faults"`
	ImplDetected int      `json:"impl_detected"`
	ImplCoverage float64  `json:"impl_coverage"`
}

// Job is one unit of work tracked by the store. Fields are guarded by
// mu; readers take a View snapshot.
type Job struct {
	mu  sync.Mutex
	id  string
	req Request
	// reqID is the HTTP request ID that carried the submission; it
	// tags the job's log records and backend shard calls end to end.
	reqID    string
	status   Status
	err      string
	result   *Result
	created  time.Time
	started  time.Time
	finished time.Time

	// attempt counts how many times the job has been started; recovered
	// jobs resume past their journaled attempts.
	attempt int
	// progress is the running attempt's last heartbeat: begin stamps
	// it, and the attempt refreshes it at every stage boundary and
	// checkpoint write. The watchdog compares it against the configured
	// no-progress window.
	progress time.Time
	// stalled marks an attempt the watchdog gave up on; stallCh (fresh
	// per attempt) is closed at that moment, cueing the owning worker
	// to abandon the wedged computation and requeue the job.
	stalled bool
	stallCh chan struct{}
	// cacheKey and cacheSrc record the request's result-cache key and
	// how the result was obtained ("miss", "hit", "hit-disk", "shared");
	// empty on jobs that got no result from the cache layer (caching
	// off, a failed run, or replayed from the journal, which does not
	// persist them).
	cacheKey string
	cacheSrc string
	// cancelRequested marks the job for cancellation; cancel is the
	// running attempt's context cancel func, set for the duration of the
	// run so Cancel can interrupt it mid-stage.
	cancelRequested bool
	cancel          context.CancelFunc
	// submitted is held from enqueue until Submit has journaled the job,
	// so a worker that dequeues it at once cannot journal its start
	// ahead of its submit (replay drops events that precede their
	// submit, which would lose the attempt count).
	submitted sync.WaitGroup
}

// View is an immutable snapshot of a job, shaped for JSON.
type View struct {
	ID       string     `json:"id"`
	Kind     Kind       `json:"kind"`
	Status   Status     `json:"status"`
	Error    string     `json:"error,omitempty"`
	Result   *Result    `json:"result,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// QueueMS and RunMS are the queue wait and run time in
	// milliseconds, filled once known.
	QueueMS int64 `json:"queue_ms,omitempty"`
	RunMS   int64 `json:"run_ms,omitempty"`
	// Attempt counts starts; >1 marks a job re-run after crash recovery.
	Attempt int `json:"attempt,omitempty"`
	// CacheKey is the request's result-cache key
	// (the HTTP layer derives the strong ETag from it); Cache reports how
	// the result was obtained: "miss" (computed here), "hit"/"hit-disk"
	// (served from a previous run's payload), or "shared" (rode a
	// concurrent identical submission's single flight).
	CacheKey string `json:"cache_key,omitempty"`
	Cache    string `json:"cache,omitempty"`
	// RequestID is the HTTP request ID that submitted the job; grep
	// either process's /v1/logs for it to follow the job end to end.
	RequestID string `json:"request_id,omitempty"`
}

// View snapshots the job.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:        j.id,
		Kind:      j.req.Kind,
		Status:    j.status,
		Error:     j.err,
		Result:    j.result,
		Created:   j.created,
		Attempt:   j.attempt,
		CacheKey:  j.cacheKey,
		Cache:     j.cacheSrc,
		RequestID: j.reqID,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
		v.QueueMS = j.started.Sub(j.created).Milliseconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
		if !j.started.IsZero() {
			v.RunMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	return v
}

// begin transitions the job to running for a new attempt and installs
// the attempt's cancel func. It refuses (returning false) when the job
// was cancelled while queued or is already terminal, so the worker can
// retire it without running anything.
func (j *Job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelRequested || j.status.Terminal() {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.attempt++
	j.cancel = cancel
	j.progress = j.started
	j.stalled = false
	j.stallCh = make(chan struct{})
	return true
}

// touchProgress refreshes the job's watchdog heartbeat.
func (j *Job) touchProgress() {
	j.mu.Lock()
	j.progress = time.Now()
	j.mu.Unlock()
}

// stallChan returns the current attempt's stall signal; the worker
// selects on it against the computation's completion.
func (j *Job) stallChan() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stallCh
}

// stalledAttempt reports whether the watchdog tripped this attempt.
func (j *Job) stalledAttempt() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stalled
}

// stallIfStuck is the watchdog's check-and-trip: when the job is
// running, not already tripped, and its heartbeat is older than the
// window, it marks the attempt stalled, closes the stall channel (the
// worker's cue to requeue) and cancels the attempt's context so the
// wedged computation unwinds at its next cooperative check instead of
// burning CPU behind the retry. A job with a user cancellation pending
// is left to the normal cancel path.
func (j *Job) stallIfStuck(now time.Time, window time.Duration) bool {
	j.mu.Lock()
	if j.status != StatusRunning || j.stalled || j.cancelRequested ||
		j.stallCh == nil || now.Sub(j.progress) < window {
		j.mu.Unlock()
		return false
	}
	j.stalled = true
	cancel := j.cancel
	close(j.stallCh)
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// resetForRetry returns a stalled job to the queueable state for its
// next attempt. It refuses (ok=false) when the job went terminal or
// was cancelled in the meantime; the caller retires it instead.
func (j *Job) resetForRetry() (attempt int, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() || j.cancelRequested {
		return j.attempt, false
	}
	j.status = StatusQueued
	j.cancel = nil
	return j.attempt, true
}

// requestCancel marks the job for cancellation and interrupts the
// running attempt, if any. first reports whether this was the first
// cancel request; queued reports that the job had not started -- since
// cancelRequested is set under the same mutex begin checks, a queued
// job is then guaranteed never to run, and the caller may retire it
// immediately.
func (j *Job) requestCancel() (first, queued bool) {
	j.mu.Lock()
	first = !j.cancelRequested && !j.status.Terminal()
	queued = j.status == StatusQueued
	j.cancelRequested = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return first, queued
}

// cancelPending reports whether cancellation has been requested but the
// job is not yet terminal.
func (j *Job) cancelPending() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested && !j.status.Terminal()
}

// finishLocked moves the job to its terminal state: done on nil error,
// cancelled when cancellation was requested and the run unwound with
// context.Canceled, failed otherwise. The returned changed flag is
// false when the job was already terminal (it is then a no-op), so
// callers never double-count metrics or double-journal transitions.
// The caller holds j.mu.
func (j *Job) finishLocked(res *Result, err error) (status Status, dur time.Duration, changed bool) {
	if j.status.Terminal() {
		return j.status, 0, false
	}
	j.finished = time.Now()
	j.cancel = nil
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = res
	case j.cancelRequested && errors.Is(err, context.Canceled):
		j.status = StatusCancelled
		j.err = err.Error()
	default:
		j.status = StatusFailed
		j.err = err.Error()
	}
	start := j.started
	if start.IsZero() {
		start = j.created
	}
	return j.status, j.finished.Sub(start), true
}
