package dispatch

import (
	"testing"
	"time"
)

// TestBackoffDelayShape: a shard's retry delays follow the capped
// exponential ladder of the configured RetryBackoff/RetryBackoffCap,
// each spread over [d/2, d].
func TestBackoffDelayShape(t *testing.T) {
	d := New(Config{RetryBackoff: 10 * time.Millisecond, RetryBackoffCap: 80 * time.Millisecond, Seed: 1})
	// Unjittered ladder: 10, 20, 40, 80, 80, ... each spread to [d/2, d].
	wantCap := []time.Duration{10, 20, 40, 80, 80, 80}
	for attempt := 1; attempt <= len(wantCap); attempt++ {
		hi := wantCap[attempt-1] * time.Millisecond
		for i := 0; i < 100; i++ {
			got := d.jitter(attempt)
			if got < hi/2 || got > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, hi/2, hi)
			}
		}
	}
}
