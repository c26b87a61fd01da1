package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQuantileEmptyHistogram(t *testing.T) {
	h := new(Histogram)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Errorf("empty count/sum/max/mean = %d/%v/%v/%v, want all zero",
			h.Count(), h.Sum(), h.Max(), h.Mean())
	}
}

func TestQuantileSingleSampleIsExact(t *testing.T) {
	for _, d := range []time.Duration{
		500 * time.Nanosecond, // inside the first bucket
		3 * time.Millisecond,  // mid-range bucket
		42 * time.Second,      // +Inf bucket
	} {
		h := new(Histogram)
		h.Observe(d)
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
			if got := h.Quantile(q); got != d {
				t.Errorf("single sample %v: Quantile(%v) = %v, want exact sample", d, q, got)
			}
		}
	}
}

func TestQuantileClampedToRange(t *testing.T) {
	h := new(Histogram)
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	if got := h.Quantile(-0.5); got != h.Quantile(0) {
		t.Errorf("Quantile(-0.5) = %v, want Quantile(0) = %v", got, h.Quantile(0))
	}
	if got := h.Quantile(2.0); got != h.Quantile(1) {
		t.Errorf("Quantile(2.0) = %v, want Quantile(1) = %v", got, h.Quantile(1))
	}
}

func TestQuantileMonotoneAndBounded(t *testing.T) {
	h := new(Histogram)
	// A spread across several buckets including +Inf.
	samples := []time.Duration{
		800 * time.Nanosecond,
		5 * time.Microsecond, 7 * time.Microsecond,
		50 * time.Microsecond,
		300 * time.Microsecond, 700 * time.Microsecond,
		2 * time.Millisecond, 8 * time.Millisecond,
		40 * time.Millisecond,
		15 * time.Second,
	}
	for _, d := range samples {
		h.Observe(d)
	}
	max := h.Max()
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%.2f gives %v after %v", q, v, prev)
		}
		if v < 0 || v > max {
			t.Fatalf("Quantile(%v) = %v outside [0, max=%v]", q, v, max)
		}
		prev = v
	}
	// The top quantile must reach the observed max (clamp, not bucket
	// upper bound, which here would be +Inf).
	if got := h.Quantile(1); got != max {
		t.Errorf("Quantile(1) = %v, want max %v", got, max)
	}
	// The median of this 10-sample spread sits in the 100µs-1ms bucket.
	p50 := h.Quantile(0.5)
	if p50 < 100*time.Microsecond || p50 > time.Millisecond {
		t.Errorf("p50 = %v, want within (100µs, 1ms]", p50)
	}
}

func TestQuantileUniformBucketInterpolation(t *testing.T) {
	// 100 samples all in the (1ms, 10ms] bucket: interpolation inside
	// one bucket must spread quantiles across it monotonically and
	// land p100 on the max.
	h := new(Histogram)
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(2+i%8) * time.Millisecond)
	}
	p50, p95 := h.Quantile(0.5), h.Quantile(0.95)
	if p50 <= time.Millisecond || p50 > 10*time.Millisecond {
		t.Errorf("p50 = %v, want inside the (1ms, 10ms] bucket", p50)
	}
	if p95 < p50 {
		t.Errorf("p95 %v < p50 %v", p95, p50)
	}
	if got, max := h.Quantile(1), h.Max(); got != max {
		t.Errorf("p100 = %v, want max %v", got, max)
	}
}

// TestSnapshotMatchesDirectReads: the JSON snapshot String renders for
// /metrics agrees with the direct reads, and the quantiles are ordered.
func TestSnapshotMatchesDirectReads(t *testing.T) {
	h := new(Histogram)
	for i := 1; i <= 50; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	var snap struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum_ns"`
		Max   int64 `json:"max_ns"`
		Mean  int64 `json:"mean_ns"`
		P50   int64 `json:"p50_ns"`
		P95   int64 `json:"p95_ns"`
		P99   int64 `json:"p99_ns"`
	}
	if err := json.Unmarshal([]byte(h.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Count != h.Count() || snap.Sum != int64(h.Sum()) || snap.Max != int64(h.Max()) || snap.Mean != int64(h.Mean()) {
		t.Errorf("snapshot %+v disagrees with direct reads", snap)
	}
	if snap.P50 != int64(h.Quantile(0.5)) || snap.P95 != int64(h.Quantile(0.95)) || snap.P99 != int64(h.Quantile(0.99)) {
		t.Errorf("snapshot quantiles %+v disagree with Quantile()", snap)
	}
	if !(snap.P50 <= snap.P95 && snap.P95 <= snap.P99 && snap.P99 <= snap.Max) {
		t.Errorf("quantile ordering violated: %+v", snap)
	}
}

func TestHistogramStringIncludesQuantiles(t *testing.T) {
	h := new(Histogram)
	h.Observe(5 * time.Millisecond)
	s := h.String()
	var decoded struct {
		Count int64            `json:"count"`
		P50   int64            `json:"p50_ns"`
		P95   int64            `json:"p95_ns"`
		P99   int64            `json:"p99_ns"`
		Bkts  map[string]int64 `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(s), &decoded); err != nil {
		t.Fatalf("String() is not valid JSON: %v\n%s", err, s)
	}
	want := int64(5 * time.Millisecond)
	if decoded.P50 != want || decoded.P95 != want || decoded.P99 != want {
		t.Errorf("single-sample quantiles = %d/%d/%d ns, want all %d\n%s",
			decoded.P50, decoded.P95, decoded.P99, want, s)
	}
	if !strings.Contains(s, `"p50_ns"`) {
		t.Errorf("String() missing p50_ns: %s", s)
	}
}

// TestConcurrentObserveVsSnapshot is the -race gate for the read
// paths: writers observe while a reader reads count/max/quantiles and
// renders the JSON snapshot continuously; every read must be sane
// (values in range) even though the set is not an instantaneous cut.
func TestConcurrentObserveVsSnapshot(t *testing.T) {
	h := new(Histogram)
	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(1+(w*perWriter+i)%10000) * time.Microsecond)
			}
		}(w)
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			count, max := h.Count(), h.Max()
			p50, p95, p99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99)
			if count < 0 || p50 < 0 || p95 < 0 || p99 < 0 {
				t.Error("negative read")
				return
			}
			if p50 > max+time.Second || p99 > max+time.Second {
				// Max may lag buckets slightly under concurrency, but
				// never by seconds with µs-scale samples.
				t.Errorf("wildly inconsistent reads: p50=%v p99=%v max=%v", p50, p99, max)
				return
			}
			_ = h.String() // JSON rendering must be race-free too
		}
	}()

	wg.Wait()
	close(stop)
	<-readerDone

	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("final count = %d, want %d", got, writers*perWriter)
	}
	p50, p95, p99, max := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max()
	if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
		t.Fatalf("final quantile ordering violated: p50=%v p95=%v p99=%v max=%v", p50, p95, p99, max)
	}
}
