package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/retry"
)

// The stuck-progress watchdog catches the failure the deadline cannot:
// an attempt that stops advancing without failing -- a worker wedged
// on a dead backend socket, a livelocked stage, a hung filesystem --
// and would otherwise squat on its worker until the job timeout burns
// the whole budget. Running jobs emit progress heartbeats from their
// stage boundaries and checkpoint writes; the watchdog scans every
// cfg.WatchdogPoll and trips any running job whose last heartbeat is
// older than cfg.WatchdogWindow: the attempt's context is cancelled,
// the owning worker abandons it, and the job goes back through the
// same capped, jittered retry ladder crash recovery uses -- resuming
// from its durable checkpoint, so the work already done is kept.
// Detections count as service.watchdog.stalled, successful requeues as
// service.watchdog.requeued.

// watchdog is the scan loop, one goroutine per service, started by
// Open when cfg.WatchdogWindow > 0. It exits when the service's base
// context is cancelled (shutdown) and signals that via wdDone.
func (s *Service) watchdog() {
	defer close(s.wdDone)
	t := time.NewTicker(s.cfg.WatchdogPoll)
	defer t.Stop()
	for {
		select {
		case <-s.base.Done():
			return
		case now := <-t.C:
			s.watchdogScan(now)
		}
	}
}

// watchdogScan trips every running job whose heartbeat is older than
// the window. Trips are counted and logged here; the requeue itself
// happens on the owning worker (runJob's stall branch), which knows
// whether the attempt budget has room.
func (s *Service) watchdogScan(now time.Time) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		if j.stallIfStuck(now, s.cfg.WatchdogWindow) {
			s.reg.Counter("service.watchdog.stalled").Inc()
			s.log.Warnf("id=%s job=%s stalled: no progress for %s; cancelling attempt",
				j.reqID, j.id, s.cfg.WatchdogWindow)
		}
	}
}

// requeueOrFail routes a stalled attempt back through the retry
// ladder: under MaxAttempts the job re-queues with the same capped,
// jittered exponential backoff crash recovery uses (and resumes from
// its durable checkpoint, when it has one); at the limit it fails for
// good. A job that went terminal or was cancelled while the trip was
// in flight is retired through the normal paths instead.
func (s *Service) requeueOrFail(j *Job) {
	attempt, ok := j.resetForRetry()
	if !ok {
		s.finishJob(j, nil, context.Canceled)
		return
	}
	if attempt >= s.cfg.MaxAttempts {
		s.finishJob(j, nil, fmt.Errorf("service: stalled on attempt %d/%d (no progress for %s); giving up",
			attempt, s.cfg.MaxAttempts, s.cfg.WatchdogWindow))
		return
	}
	delay := s.jit.Spread(retry.Backoff(s.cfg.RetryBackoff, s.cfg.RetryBackoffCap, attempt))
	s.reg.Counter("service.watchdog.requeued").Inc()
	s.log.Warnf("id=%s job=%s attempt=%d stalled; requeued with %s backoff",
		j.reqID, j.id, attempt, delay.Round(time.Millisecond))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.finishJob(j, nil, errRetryAbandoned)
		return
	}
	s.timers[j.id] = time.AfterFunc(delay, func() { s.retryEnqueue(j) })
	s.mu.Unlock()
}
