package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/atpg"
	"repro/internal/httpmw"
	"repro/internal/netlist"
)

// HTTPBackend drives one cmd/workerd worker over the shard protocol
// (see wire.go). Run submits the shard, then polls it; every poll is
// also the heartbeat, and the latest partial checkpoint rides along in
// the poll response, so the dispatcher's view of migratable work is
// never older than one poll interval. A bounded number of consecutive
// poll failures is tolerated (a torn heartbeat is not a dead worker);
// past that the attempt fails and the dispatcher's retry ladder takes
// over with the last validated checkpoint.
type HTTPBackend struct {
	name string
	base string // http://host:port, no trailing slash
	c    *http.Client
}

// The poll policy. Like the dispatcher's retry policy it cannot change
// a result, so it is fixed.
const (
	// pollEvery is the status poll (heartbeat) interval.
	pollEvery = 50 * time.Millisecond
	// requestTimeout bounds each individual HTTP request.
	requestTimeout = 5 * time.Second
	// maxPollFailures is how many consecutive failed polls Run rides
	// out before declaring the attempt dead.
	maxPollFailures = 3
)

// NewHTTPBackend returns a backend for the worker at base
// (e.g. "http://127.0.0.1:9100"). The backend's name is its base URL
// stripped of the scheme.
func NewHTTPBackend(base string) *HTTPBackend {
	base = strings.TrimRight(base, "/")
	name := strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
	return &HTTPBackend{name: name, base: base, c: &http.Client{}}
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.name }

// do performs one request with the per-request timeout, decoding a JSON
// response into out when non-nil. Non-2xx responses are errors.
func (b *HTTPBackend) do(ctx context.Context, method, path string, body, out any) error {
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(rctx, method, b.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the originating request ID so the worker's access and
	// shard-lifecycle logs correlate with the servd submission.
	if id := httpmw.IDFromContext(ctx); id != "" {
		req.Header.Set(httpmw.Header, id)
	}
	resp, err := b.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(data))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return fmt.Errorf("backend %s: %s %s: %s: %s", b.name, method, path, resp.Status, msg)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// Healthy implements Backend: a GET /healthz round trip.
func (b *HTTPBackend) Healthy(ctx context.Context) error {
	return b.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Run implements Backend: submit, poll-with-heartbeat, validate, done.
// Every checkpoint the worker hands back -- partial or final -- is
// decoded and identity-validated against the spec before it is trusted
// (a poisoned response fails the attempt instead of reaching the
// merge).
func (b *HTTPBackend) Run(ctx context.Context, spec ShardSpec, progress Progress) ([]atpg.DecidedFault, error) {
	req := shardRequest{
		Name:            spec.Circuit.Name,
		Bench:           spec.Bench,
		Fault:           toFaultWire(spec.Faults),
		Opt:             toOptionsWire(spec.Opt),
		CheckpointEvery: spec.CheckpointEvery,
	}
	if spec.Bench == "" {
		req.Bench = netlist.BenchString(spec.Circuit)
	}
	if spec.Resume != nil {
		req.Resume = spec.Resume.Encode()
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.DeadlineMS = ms
		}
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := b.do(ctx, http.MethodPost, "/v1/shards", req, &sub); err != nil {
		return nil, err
	}
	if sub.ID == "" {
		return nil, fmt.Errorf("backend %s: submit returned no shard id", b.name)
	}
	path := "/v1/shards/" + url.PathEscape(sub.ID)
	// Best-effort cleanup so an abandoned attempt does not keep burning
	// worker CPU; a fresh context because ctx may already be done.
	defer func() {
		base := httpmw.ContextWithID(context.Background(), httpmw.IDFromContext(ctx))
		dctx, cancel := context.WithTimeout(base, requestTimeout)
		defer cancel()
		b.do(dctx, http.MethodDelete, path, nil, nil) //nolint:errcheck
	}()

	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
		var st shardStatusWire
		if err := b.do(ctx, http.MethodGet, path, nil, &st); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if fails++; fails > maxPollFailures {
				return nil, fmt.Errorf("backend %s: %d consecutive poll failures: %w", b.name, fails, err)
			}
			continue
		}
		fails = 0
		switch st.State {
		case shardStateQueued, shardStateRunning:
			if len(st.Checkpoint) > 0 && progress != nil {
				if ck := b.validated(st.Checkpoint, spec, false); ck != nil {
					progress(ck)
				}
			}
		case shardStateDone:
			ck := b.validated(st.Checkpoint, spec, true)
			if ck == nil {
				return nil, fmt.Errorf("backend %s: final checkpoint failed validation", b.name)
			}
			return ck.Decided, nil
		case shardStateFailed:
			return nil, fmt.Errorf("backend %s: shard failed: %s", b.name, st.Error)
		default:
			return nil, fmt.Errorf("backend %s: unknown shard state %q", b.name, st.State)
		}
	}
}

// validated decodes an on-the-wire checkpoint and checks it with
// validShardLog against the shard spec. It returns nil on any mismatch
// -- the caller treats a bad partial as absent and a bad final as a
// failed attempt.
func (b *HTTPBackend) validated(data []byte, spec ShardSpec, final bool) *atpg.Checkpoint {
	ck, err := atpg.DecodeCheckpoint(data)
	if err != nil || !validShardLog(spec.Circuit, spec.Faults, spec.Opt, ck, final) {
		return nil
	}
	return ck
}
