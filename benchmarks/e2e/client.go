package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Client behaviour. No record of servd's real traffic exists, so these
// are assumptions chosen to expose the server's own costs, not a model
// of observed use. Two clients in a closed loop keep both workers of
// servd's default pool busy on the two-core reference host without
// building a queue. Each client polls on a fixed schedule that starts
// at 0.25 ms and doubles up to a 2 ms cap: deliberately faster than the
// 100 ms poll of cmd/dispatchsmoke, because the wait between a job's
// end and the poll that sees it adds straight to the measured latency.
// At 100 ms the poll interval would swamp fig6_hot's ~11 ms job
// latency; at a 2 ms cap it adds at most 2 ms per job, for about three
// polls per job.
const (
	clients    = 2
	pollFirst  = 250 * time.Microsecond
	pollCap    = 2 * time.Millisecond
	jobTimeout = 150 * time.Second
)

// newHTTPClient keeps exactly two keep-alive connections to each
// daemon, one per client, and never goes through a proxy.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
}

// jobRecord is what one client saw of one job.
type jobRecord struct {
	job *job
	id  string
	// postStart and observed are client clock readings: just before the
	// POST and when the first GET showing a terminal status was read.
	postStart, observed time.Time
	// created, started and finished are the server's View timestamps.
	created, started, finished time.Time
	err                        string // submit failure, job failure or check mismatch
	polls                      int
	resultBytes                int    // size of the terminal GET body
	result                     []byte // compact JSON of View.Result
}

func (r *jobRecord) ok() bool { return r.err == "" }

func (r *jobRecord) latency() time.Duration { return r.observed.Sub(r.postStart) }

// view is the subset of service.View the client reads.
type view struct {
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
}

// runJob submits one job and polls it to a terminal status.
func runJob(ctx context.Context, hc *http.Client, base string, j *job) *jobRecord {
	rec := &jobRecord{job: j, postStart: time.Now()}
	body, code, err := do(ctx, hc, http.MethodPost, base+"/v1/jobs", j.body)
	if err != nil {
		rec.err = "submit: " + err.Error()
		return rec
	}
	if code != http.StatusAccepted {
		rec.err = fmt.Sprintf("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
		return rec
	}
	var acc struct{ ID string }
	if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
		rec.err = fmt.Sprintf("submit: bad 202 body %q", body)
		return rec
	}
	rec.id = acc.ID
	for delay := pollFirst; ; delay = min(2*delay, pollCap) {
		time.Sleep(delay)
		if ctx.Err() != nil {
			rec.err = "interrupted"
			return rec
		}
		body, code, err := do(ctx, hc, http.MethodGet, base+"/v1/jobs/"+rec.id, nil)
		got := time.Now()
		rec.polls++
		if err != nil || code != http.StatusOK {
			rec.err = fmt.Sprintf("poll %s: HTTP %d %v", rec.id, code, err)
			return rec
		}
		var v view
		if err := json.Unmarshal(body, &v); err != nil {
			rec.err = fmt.Sprintf("poll %s: %v", rec.id, err)
			return rec
		}
		switch v.Status {
		case "done", "failed", "cancelled":
			rec.observed, rec.resultBytes = got, len(body)
			rec.created = v.Created
			if v.Started != nil && v.Finished != nil {
				rec.started, rec.finished = *v.Started, *v.Finished
			}
			if v.Status != "done" {
				rec.err = fmt.Sprintf("job %s %s: %s", rec.id, v.Status, v.Error)
				return rec
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, v.Result); err != nil || buf.Len() == 0 || v.Started == nil || v.Finished == nil {
				rec.err = fmt.Sprintf("job %s: done without a well-formed result", rec.id)
				return rec
			}
			rec.result = buf.Bytes()
			return rec
		}
		if got.Sub(rec.postStart) > jobTimeout {
			rec.err = fmt.Sprintf("job %s: not terminal after %v", rec.id, jobTimeout)
			return rec
		}
	}
}

// do performs one request and reads the whole response body.
func do(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// runAll runs the jobs on the two clients and returns their records in
// the jobs' order.
func runAll(ctx context.Context, hc *http.Client, base string, jobs []*job) []*jobRecord {
	recs := make([]*jobRecord, len(jobs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(jobs) {
					return
				}
				recs[k] = runJob(ctx, hc, base, jobs[k])
			}
		}()
	}
	wg.Wait()
	return recs
}

// minRounds is the fewest rounds a timed phase runs. It binds only
// fig6_cold and atpg_sharded, whose nine-job rounds take about a
// ten-second run each: one round gives too few latency samples.
const minRounds = 2

// closedLoop is the timed phase: each client submits its next job only
// after the previous one completed. Submission stops at the first round
// boundary after budget has passed and minRounds rounds were issued (or
// at the workload's job cap), so a run always covers whole rounds.
// onDone is called from both clients.
func closedLoop(ctx context.Context, hc *http.Client, base string, w *workload, budget time.Duration, onDone func(*jobRecord)) {
	start := time.Now()
	var mu sync.Mutex
	next := 1
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		rounds, boundary := (next-1)/w.roundLen(), (next-1)%w.roundLen() == 0
		done := rounds >= minRounds && time.Since(start) >= budget
		if ctx.Err() != nil || boundary && (done || next > w.maxJobs) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n, ok := take(); ok; n, ok = take() {
				onDone(runJob(ctx, hc, base, w.job(n)))
			}
		}()
	}
	wg.Wait()
}
