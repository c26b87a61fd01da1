// Package retry holds the degradation primitives every durability and
// distribution path shares: one consecutive-failure circuit Breaker,
// one capped exponential Backoff ladder, and one Spread that jitters
// delays so independent retry schedules decorrelate.
//
// Users: dispatch benches a backend behind a Breaker and spaces shard
// attempts with Backoff+Spread; the result cache's disk tier and the
// job journal each run their degraded (memory-only) mode behind a
// Breaker; the service's crash-recovery and watchdog requeues wait out
// Backoff+Spread.
package retry

import (
	"math/rand/v2"
	"sync"
	"time"
)

// Breaker is a consecutive-failure circuit breaker. Once Threshold
// consecutive failures accumulate it opens and Allow denies attempts
// until Cooldown elapses; then it is half-open: attempts are allowed
// again, a Success closes it, a Failure re-opens it for another
// Cooldown. Safe for concurrent use.
type Breaker struct {
	// Threshold and Cooldown are fixed at construction.
	Threshold int
	Cooldown  time.Duration

	mu          sync.Mutex
	consecutive int
	openUntil   time.Time
}

// NewBreaker returns a closed breaker.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{Threshold: threshold, Cooldown: cooldown}
}

// Allow reports whether an attempt may proceed at time now: always
// while closed, never while open, always once half-open.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecutive < b.Threshold || !now.Before(b.openUntil)
}

// Tripped reports whether the breaker is open or half-open: the
// consecutive failure count has reached the threshold and no success
// has closed it since.
func (b *Breaker) Tripped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecutive >= b.Threshold
}

// Success closes the breaker and reports whether it was tripped.
func (b *Breaker) Success() (closedNow bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	closedNow = b.consecutive >= b.Threshold
	b.consecutive = 0
	b.openUntil = time.Time{}
	return closedNow
}

// Failure records one failure at time now and reports whether it
// opened the breaker: the threshold crossing, or a failed half-open
// probe re-opening it. A failure while still open re-arms the cooldown
// without counting as a new opening.
func (b *Breaker) Failure(now time.Time) (openedNow bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.consecutive < b.Threshold {
		return false
	}
	wasOpen := !b.openUntil.IsZero() && now.Before(b.openUntil)
	b.openUntil = now.Add(b.Cooldown)
	return !wasOpen
}

// Backoff is the capped exponential delay before retry number attempt
// (attempt >= 1): base << (attempt-1), never above limit. A
// non-positive base disables the delay.
func Backoff(base, limit time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d >= limit || d <= 0 {
			return limit
		}
	}
	return min(d, limit)
}

// Spread maps a base delay d to a uniform pick from [d/2, d], so
// independent retry schedules (shard attempts, recovered-job re-runs,
// watchdog requeues) decorrelate instead of stampeding in lockstep.
// Safe for concurrent use.
func Spread(d time.Duration) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + rand.N(half+1)
}
