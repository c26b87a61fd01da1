// Package metrics is a small dependency-free instrumentation registry:
// atomic counters, gauges and latency histograms addressed by name.
// Every metric implements expvar.Var (String returns valid JSON), so a
// Registry can be exported through the standard expvar machinery, and
// Registry.WriteJSON serves the same snapshot directly (the /metrics
// endpoint of cmd/servd). The service layer records jobs by kind and
// outcome, queue depth and per-stage latency here; the experiment
// harness can reuse the same registry via experiments.SetMetrics.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing 64-bit counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta (delta < 0 is ignored: counters
// only go up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// String renders the counter as JSON (expvar.Var).
func (c *Counter) String() string { return fmt.Sprintf("%d", c.Value()) }

// Gauge is a 64-bit value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set sets the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// String renders the gauge as JSON (expvar.Var).
func (g *Gauge) String() string { return fmt.Sprintf("%d", g.Value()) }

// histBounds are the histogram bucket upper bounds in nanoseconds:
// 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s; a final implicit
// +Inf bucket catches the rest.
var histBounds = [numHistBounds]int64{
	int64(time.Microsecond),
	int64(10 * time.Microsecond),
	int64(100 * time.Microsecond),
	int64(time.Millisecond),
	int64(10 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(time.Second),
	int64(10 * time.Second),
}

// Histogram accumulates durations into fixed exponential buckets and
// tracks count, sum and max. All operations are lock-free.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [numHistBounds + 1]atomic.Int64
}

const numHistBounds = 8

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
	i := 0
	for i < len(histBounds) && ns > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the average observed duration (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the containing bucket, clamped
// to the observed max so a single-sample histogram reports that sample
// exactly at every quantile. Empty histograms return 0. The buckets
// are read without a lock, so under concurrent Observe the estimate is
// a consistent-enough snapshot, not an instant in time — the same
// contract as every other read in this package.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	var counts [numHistBounds + 1]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	max := h.max.Load()
	// Rank of the target observation, 1-based: ceil(q * total), at
	// least 1 so q=0 lands on the first observation.
	target := int64(q * float64(total))
	if float64(target) < q*float64(total) || target == 0 {
		target++
	}
	var cum, lo int64
	for i, c := range counts {
		if cum+c < target {
			cum += c
			if i < numHistBounds {
				lo = histBounds[i]
			}
			continue
		}
		hi := max
		if i < numHistBounds && histBounds[i] < max {
			hi = histBounds[i]
		}
		if hi < lo {
			hi = lo
		}
		// Interpolate the target's position within this bucket.
		est := lo + (hi-lo)*(target-cum)/c
		if est > max {
			est = max
		}
		return time.Duration(est)
	}
	return time.Duration(max)
}

// String renders the histogram as a JSON object (expvar.Var): count,
// sum/max/mean and p50/p95/p99 in nanoseconds, and one cumulative-free
// bucket count per upper bound ("le" rendered in time.Duration
// notation, "+Inf" last).
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"count":%d,"sum_ns":%d,"max_ns":%d,"mean_ns":%d,"p50_ns":%d,"p95_ns":%d,"p99_ns":%d,"buckets":{`,
		h.Count(), h.sum.Load(), h.max.Load(), int64(h.Mean()),
		int64(h.Quantile(0.50)), int64(h.Quantile(0.95)), int64(h.Quantile(0.99)))
	for i := range h.buckets {
		if i > 0 {
			sb.WriteByte(',')
		}
		label := "+Inf"
		if i < len(histBounds) {
			label = time.Duration(histBounds[i]).String()
		}
		fmt.Fprintf(&sb, `"%s":%d`, label, h.buckets[i].Load())
	}
	sb.WriteString("}}")
	return sb.String()
}

// Var is the expvar-compatible interface every metric satisfies.
type Var interface{ String() string }

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry. Lookup methods create the metric on first
// use, so call sites never need registration boilerplate; looking up an
// existing name with a different type panics (a programming error).
type Registry struct {
	mu   sync.RWMutex
	vars map[string]Var
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]Var)}
}

func (r *Registry) lookup(name string, mk func() Var) Var {
	r.mu.RLock()
	v, ok := r.vars[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = r.vars[name]; ok {
		return v
	}
	v = mk()
	r.vars[name] = v
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	v := r.lookup(name, func() Var { return new(Counter) })
	c, ok := v.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %q is a %T, not a Counter", name, v))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	v := r.lookup(name, func() Var { return new(Gauge) })
	g, ok := v.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %q is a %T, not a Gauge", name, v))
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	v := r.lookup(name, func() Var { return new(Histogram) })
	h, ok := v.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %q is a %T, not a Histogram", name, v))
	}
	return h
}

// Observe times f under the named histogram and returns f's error.
func (r *Registry) Observe(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	r.Histogram(name).Observe(time.Since(t0))
	return err
}

// Do calls f for every metric in name order (the expvar.Do contract).
func (r *Registry) Do(f func(name string, v Var)) {
	r.mu.RLock()
	names := make([]string, 0, len(r.vars))
	for n := range r.vars {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		r.mu.RLock()
		v := r.vars[n]
		r.mu.RUnlock()
		f(n, v)
	}
}

// WriteJSON writes the whole registry as one JSON object, metrics in
// name order. Every metric's String() is valid JSON, so the output is
// machine-readable; this is the /metrics payload of cmd/servd.
func (r *Registry) WriteJSON(w io.Writer) error {
	var err error
	write := func(s string) {
		if err == nil {
			_, err = io.WriteString(w, s)
		}
	}
	write("{")
	first := true
	r.Do(func(name string, v Var) {
		if !first {
			write(",")
		}
		first = false
		write(fmt.Sprintf("%q:%s", name, v.String()))
	})
	write("}\n")
	return err
}
