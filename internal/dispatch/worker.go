package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"time"

	"repro/internal/atpg"
	"repro/internal/httpmw"
	"repro/internal/logger"
	"repro/internal/metrics"
)

// Worker is the server side of the shard protocol -- the engine behind
// cmd/workerd, exported so tests can mount it on httptest servers. It
// accepts shards, runs them through atpg.GenerateShard under a bounded
// concurrency semaphore, and serves poll responses carrying the latest
// partial checkpoint (canonical encoding) so the dispatcher always has
// migratable state on hand.
type Worker struct {
	sem chan struct{}
	reg *metrics.Registry
	log *logger.Logger

	// draining flips when graceful shutdown begins; /healthz then
	// answers 503 "draining" so the dispatcher's health checks stop
	// routing new shards here while in-flight ones finish.
	draining atomic.Bool

	mu     sync.Mutex
	closed bool
	nextID int
	shards map[string]*workerShard
	// running joins the run goroutines; each is added under mu while
	// closed is false, so no Add races Close's Wait.
	running sync.WaitGroup
}

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// MaxConcurrent bounds simultaneously running shards (default 1:
	// a workerd is one execution slot; run more processes for more
	// slots).
	MaxConcurrent int
	// Metrics receives worker.shards.{accepted,done,failed} counters
	// when non-nil.
	Metrics *metrics.Registry
	// Logger, when non-nil, receives shard lifecycle records tagged
	// with the originating request ID (propagated from servd via
	// X-Request-Id), so a worker's logs correlate with the submission
	// that caused the work.
	Logger *logger.Logger
}

type workerShard struct {
	cancel context.CancelFunc

	mu      sync.Mutex
	state   string
	decided int
	latest  []byte // latest checkpoint, canonical encoding
	errMsg  string
}

// NewWorker returns a Worker ready to serve.
func NewWorker(cfg WorkerConfig) *Worker {
	n := cfg.MaxConcurrent
	if n <= 0 {
		n = 1
	}
	return &Worker{
		sem:    make(chan struct{}, n),
		reg:    cfg.Metrics,
		log:    cfg.Logger,
		shards: make(map[string]*workerShard),
	}
}

func (w *Worker) count(name string) {
	if w.reg != nil {
		w.reg.Counter(name).Inc()
	}
}

// StartDraining flips the health probe to 503 "draining": readiness
// ends before liveness does, matching servd's shutdown sequence, so a
// worker leaving the fleet stops attracting shards while the ones it
// holds run to completion. Submissions are still accepted until Close
// -- the dispatcher may race one in -- but probes steer new work away.
func (w *Worker) StartDraining() {
	w.draining.Store(true)
}

// Close cancels every in-flight shard, rejects new submissions and
// returns once every shard goroutine has exited.
func (w *Worker) Close() {
	w.mu.Lock()
	w.closed = true
	shards := make([]*workerShard, 0, len(w.shards))
	for _, sh := range w.shards {
		shards = append(shards, sh)
	}
	w.mu.Unlock()
	for _, sh := range shards {
		sh.cancel()
	}
	w.running.Wait()
}

// Handler returns the worker's HTTP mux: the shard protocol plus
// /healthz and /metrics.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if w.draining.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(rw, "draining")
			return
		}
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		if w.reg != nil {
			w.reg.WriteJSON(rw) //nolint:errcheck
		} else {
			fmt.Fprintln(rw, "{}")
		}
	})
	mux.HandleFunc("/v1/shards", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.handleSubmit(rw, r)
	})
	mux.HandleFunc("/v1/shards/", func(rw http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/shards/")
		switch r.Method {
		case http.MethodGet:
			w.handleStatus(rw, id)
		case http.MethodDelete:
			w.handleDelete(rw, id)
		default:
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	return mux
}

func (w *Worker) handleSubmit(rw http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	work, err := decodeShardRequest(data)
	if err != nil {
		w.log.Warnf("id=%s shard rejected: %v", httpmw.IDFromContext(r.Context()), err)
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}

	sh := &workerShard{state: shardStateQueued}
	var ctx context.Context
	var cancel context.CancelFunc
	if work.deadlineMS > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(work.deadlineMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	sh.cancel = cancel

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		cancel()
		http.Error(rw, "worker shutting down", http.StatusServiceUnavailable)
		return
	}
	w.nextID++
	id := fmt.Sprintf("s%d", w.nextID)
	w.shards[id] = sh
	w.running.Add(1)
	w.mu.Unlock()
	w.count("worker.shards.accepted")

	reqID := httpmw.IDFromContext(r.Context())
	w.log.Infof("id=%s shard=%s accepted circuit=%s faults=%d resume=%d",
		reqID, id, work.c.Name, len(work.faults), work.resumeLen())
	go w.run(ctx, sh, id, reqID, work)

	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusAccepted)
	json.NewEncoder(rw).Encode(map[string]string{"id": id}) //nolint:errcheck
}

// run executes one shard: wait for a slot, generate, publish the final
// (or failure-point partial) checkpoint. A panic anywhere inside the
// engine is caught here and recorded as a shard failure -- a poisoned
// shard must never take down the worker process and the other shards
// it is running.
func (w *Worker) run(ctx context.Context, sh *workerShard, id, reqID string, work *shardWork) {
	defer w.running.Done()
	defer func() {
		if v := recover(); v != nil {
			w.log.Errorf("id=%s shard=%s panic: %v\n%s", reqID, id, v, debug.Stack())
			sh.fail(fmt.Sprintf("panic: %v", v))
			w.count("worker.shards.failed")
		}
	}()
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		sh.fail(ctx.Err().Error())
		w.count("worker.shards.failed")
		return
	}
	sh.mu.Lock()
	sh.state = shardStateRunning
	sh.mu.Unlock()
	w.log.Debugf("id=%s shard=%s running", reqID, id)

	opt := work.opt
	opt.Workers = 0
	opt.Checkpoint = atpg.CheckpointConfig{
		Every:      work.every,
		ResumeFrom: work.resume,
		OnWrite: func(ck *atpg.Checkpoint, _ error) {
			// Snapshot the live log through the canonical encoding; the
			// poll handler serves these bytes verbatim.
			sh.publish(ck.Encode(), len(ck.Decided))
		},
	}
	decided, err := atpg.GenerateShard(ctx, work.c, work.faults, opt)
	final := atpg.ShardCheckpoint(work.c, work.faults, opt, decided)
	sh.publish(final.Encode(), len(decided))
	if err != nil {
		w.log.Warnf("id=%s shard=%s failed: %v", reqID, id, err)
		sh.fail(err.Error())
		w.count("worker.shards.failed")
		return
	}
	sh.mu.Lock()
	sh.state = shardStateDone
	sh.mu.Unlock()
	w.log.Infof("id=%s shard=%s done decided=%d", reqID, id, len(decided))
	w.count("worker.shards.done")
}

func (sh *workerShard) publish(encoded []byte, decided int) {
	sh.mu.Lock()
	sh.latest = encoded
	sh.decided = decided
	sh.mu.Unlock()
}

func (sh *workerShard) fail(msg string) {
	sh.mu.Lock()
	if sh.state != shardStateDone {
		sh.state = shardStateFailed
		sh.errMsg = msg
	}
	sh.mu.Unlock()
}

func (w *Worker) lookup(id string) *workerShard {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shards[id]
}

func (w *Worker) handleStatus(rw http.ResponseWriter, id string) {
	sh := w.lookup(id)
	if sh == nil {
		http.Error(rw, "no such shard", http.StatusNotFound)
		return
	}
	sh.mu.Lock()
	st := shardStatusWire{State: sh.state, Decided: sh.decided, Checkpoint: sh.latest, Error: sh.errMsg}
	sh.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(st) //nolint:errcheck
}

func (w *Worker) handleDelete(rw http.ResponseWriter, id string) {
	w.mu.Lock()
	sh := w.shards[id]
	delete(w.shards, id)
	w.mu.Unlock()
	if sh == nil {
		http.Error(rw, "no such shard", http.StatusNotFound)
		return
	}
	sh.cancel()
	rw.WriteHeader(http.StatusNoContent)
}
