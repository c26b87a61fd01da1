package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one job (or
// one replayed input) share a trace name; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part its children cover
}

// tracer keeps spans in memory; they are written once, at the end.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(trace, name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// do runs f inside a new span; f receives the span's ID so it can open
// children.
func (t *tracer) do(trace, name string, parent int, f func(id int)) time.Duration {
	start := time.Now()
	id := t.add(trace, name, parent, start, start)
	f(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = start.UnixNano() + int64(end.Sub(start))
	t.mu.Unlock()
	return end.Sub(start)
}

// addJob records a job's root span and the four children that tile it:
// POST start to created, created to started, started to finished, and
// finished to the poll that observed it. Consecutive children share an
// endpoint, so they add up to the root by construction; what can go
// wrong is the order of the server's timestamps (see backwardSpans).
func (t *tracer) addJob(rec *jobRecord) {
	root := t.add(rec.id, "job", 0, rec.postStart, rec.observed)
	t.add(rec.id, "http.submit", root, rec.postStart, rec.created)
	t.add(rec.id, "service.queue", root, rec.created, rec.started)
	t.add(rec.id, "service.run", root, rec.started, rec.finished)
	t.add(rec.id, "http.pickup", root, rec.finished, rec.observed)
}

// finish fills every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	setSelfTimes(t.spans)
	return t.spans
}

// setSelfTimes sets each span's Self to its duration minus the union of
// its children's intervals, clipped to the span.
func setSelfTimes(spans []span) {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of intervals within [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	total, end := int64(0), lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// backwardSpans counts spans that end before they start. For a job's
// children that means the server's created, started and finished
// timestamps are out of order or fall outside the client's interval
// from POST start to observed completion; both sides read the same
// host clock, so this is a fault in the service's job accounting.
func backwardSpans(spans []span) int {
	bad := 0
	for _, s := range spans {
		if s.End < s.Start {
			bad++
		}
	}
	return bad
}

// snapshot is one parsed /metrics document: counters and gauges as
// numbers, histograms by their count and sum.
type snapshot struct {
	nums  map[string]float64
	hists map[string]histSum
}

type histSum struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
}

// mean is the histogram's mean observation.
func (h histSum) mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNS / h.Count)
}

func parseSnapshot(data []byte) (snapshot, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return snapshot{}, fmt.Errorf("parse /metrics: %w", err)
	}
	s := snapshot{nums: make(map[string]float64), hists: make(map[string]histSum)}
	for name, v := range raw {
		if len(v) > 0 && v[0] == '{' {
			var h histSum
			if err := json.Unmarshal(v, &h); err != nil {
				return snapshot{}, fmt.Errorf("parse /metrics %q: %w", name, err)
			}
			s.hists[name] = h
			continue
		}
		var f float64
		if err := json.Unmarshal(v, &f); err != nil {
			return snapshot{}, fmt.Errorf("parse /metrics %q: %w", name, err)
		}
		s.nums[name] = f
	}
	return s, nil
}

// since is s minus an earlier snapshot: what the timed phase added.
// Gauges are differenced too; read a gauge's level from s itself.
func (s snapshot) since(before snapshot) snapshot {
	d := snapshot{nums: make(map[string]float64), hists: make(map[string]histSum)}
	for k, v := range s.nums {
		d.nums[k] = v - before.nums[k]
	}
	for k, v := range s.hists {
		b := before.hists[k]
		d.hists[k] = histSum{Count: v.Count - b.Count, SumNS: v.SumNS - b.SumNS}
	}
	return d
}
