package retry

import (
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBreaker(2, time.Minute)

	if !b.Allow(t0) {
		t.Fatal("fresh breaker denies work")
	}
	if b.Failure(t0) {
		t.Fatal("first failure opened a threshold-2 breaker")
	}
	if !b.Allow(t0) || b.Tripped() {
		t.Fatal("below-threshold breaker denies work")
	}
	if !b.Failure(t0) {
		t.Fatal("threshold-crossing failure did not report opening")
	}
	if !b.Tripped() {
		t.Fatal("open breaker does not report tripped")
	}
	if b.Allow(t0.Add(30 * time.Second)) {
		t.Fatal("open breaker allows work inside the cooldown")
	}
	if !b.Allow(t0.Add(time.Minute)) {
		t.Fatal("cooled-down breaker denies the half-open probe")
	}
	// A failed half-open probe re-arms the cooldown without counting a
	// new transition (it never closed).
	if b.Failure(t0.Add(30 * time.Second)) {
		t.Fatal("still-open failure counted as a new transition")
	}
	// A probe failure after the cooldown elapsed re-opens: transition.
	if !b.Failure(t0.Add(2 * time.Minute)) {
		t.Fatal("failed half-open probe did not report re-opening")
	}
	if !b.Success() {
		t.Fatal("success on a tripped breaker did not report closing")
	}
	if !b.Allow(t0.Add(2*time.Minute)) || b.Tripped() {
		t.Fatal("closed breaker denies work")
	}
	if b.Success() {
		t.Fatal("success on a closed breaker reported closing")
	}
	if b.Failure(t0.Add(2 * time.Minute)) {
		t.Fatal("success did not reset the consecutive-failure count")
	}
}

// TestBreakerThresholdOne: the journal's configuration -- the first
// failure opens, the next attempt is denied until the cooldown.
func TestBreakerThresholdOne(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBreaker(1, 2*time.Second)
	if !b.Failure(t0) {
		t.Fatal("threshold-1 breaker did not open on its first failure")
	}
	if b.Allow(t0.Add(time.Second)) {
		t.Fatal("open breaker allowed an attempt inside the cooldown")
	}
	if !b.Allow(t0.Add(2 * time.Second)) {
		t.Fatal("cooled-down breaker denied the probe")
	}
}

func TestBackoffShape(t *testing.T) {
	base, limit := 10*time.Millisecond, 80*time.Millisecond
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for attempt := 1; attempt <= len(want); attempt++ {
		if got := Backoff(base, limit, attempt); got != want[attempt-1]*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v, want %v", attempt, got, want[attempt-1]*time.Millisecond)
		}
	}
	if d := Backoff(0, limit, 3); d != 0 {
		t.Fatalf("zero base gave %v", d)
	}
	if d := Backoff(base, limit, 0); d != base {
		t.Fatalf("attempt 0 gave %v, want the base", d)
	}
	if d := Backoff(base, 5*time.Millisecond, 1); d != 5*time.Millisecond {
		t.Fatalf("base above the cap gave %v", d)
	}
	// A shift past the int64 range saturates at the cap, never wraps.
	if d := Backoff(time.Hour, 1<<62, 200); d != 1<<62 {
		t.Fatalf("overflowing ladder gave %v", d)
	}
}

func TestJitterDeterministic(t *testing.T) {
	a, b := NewJitter(42), NewJitter(42)
	other := NewJitter(43)
	mismatched := false
	for i := 0; i < 32; i++ {
		x := a.Spread(time.Second)
		if x < 500*time.Millisecond || x > time.Second {
			t.Fatalf("spread %v outside [500ms, 1s]", x)
		}
		if x != b.Spread(time.Second) {
			t.Fatal("equal seeds diverged")
		}
		if x != other.Spread(time.Second) {
			mismatched = true
		}
	}
	if !mismatched {
		t.Fatal("different seeds produced the identical 32-draw sequence")
	}
	if d := NewJitter(1).Spread(1); d != 1 {
		t.Fatalf("sub-divisible delay %v, want passthrough", d)
	}
}
