package dispatch

import (
	"testing"
	"time"
)

// TestBackoffDelayShape: a shard's retry delays follow the capped
// exponential ladder of retryBackoff/retryBackoffCap, each spread over
// [d/2, d]. Pure arithmetic: nothing sleeps.
func TestBackoffDelayShape(t *testing.T) {
	// Unjittered ladder: 50ms doubling to the 2s cap, each spread to
	// [d/2, d].
	wantCap := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000}
	for attempt := 1; attempt <= len(wantCap); attempt++ {
		hi := wantCap[attempt-1] * time.Millisecond
		for i := 0; i < 100; i++ {
			got := jitter(attempt)
			if got < hi/2 || got > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, hi/2, hi)
			}
		}
	}
}
