package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/httpmw"
	"repro/internal/logger"
	"repro/internal/service"
)

// fpSubmit lets chaos tests force the submit handler to fail or panic
// (RETEST_FAILPOINTS="servd.submit=panic:boom") to prove Recovery keeps
// the server alive.
const fpSubmit = "servd.submit"

// routePattern normalizes request paths to bounded route labels for
// access logs and per-route histograms: concrete job IDs collapse to
// {id}, profiler subpages collapse to one label.
func routePattern(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case strings.HasPrefix(p, "/debug/pprof/"):
		return "/debug/pprof/..."
	}
	return p
}

// apiHandler is the production handler: the API mux behind the full
// middleware stack (panic recovery, request IDs, access log, per-route
// histograms, body limit). Both serve() and the end-to-end tests mount
// this, so tests exercise exactly what production runs.
func apiHandler(svc *service.Service, draining *atomic.Bool, lg *logger.Logger, maxBody int64) http.Handler {
	return httpmw.Stack(httpmw.Config{
		Log:      lg,
		Registry: svc.Metrics(),
		Route:    routePattern,
		MaxBody:  maxBody,
	})(newHandler(svc, draining))
}

// newHandler routes the HTTP API onto a service instance. It is a
// plain stdlib ServeMux so httptest can drive it directly.
func newHandler(svc *service.Service, draining *atomic.Bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if err := failpoint.Inject(fpSubmit); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		var req service.Request
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, err.Error())
				return
			}
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		id, err := svc.SubmitWithRequestID(req, httpmw.IDFromContext(r.Context()))
		switch {
		case errors.Is(err, service.ErrQueueFull):
			// Overload is transient back-pressure, not unavailability:
			// 429 plus a Retry-After hint tells well-behaved clients to
			// pace themselves instead of giving up. The hint is computed
			// from live queue depth and observed p95 job latency, so a
			// deep backlog of slow jobs pushes clients further out than a
			// momentary blip.
			w.Header().Set("Retry-After", strconv.FormatInt(int64(svc.RetryAfter()/time.Second), 10))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, service.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		case err != nil:
			writeError(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusAccepted, map[string]string{
				"id":     id,
				"status": string(service.StatusQueued),
			})
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := svc.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := svc.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		// A done job with a cache key is immutable content named by that
		// key, so the key doubles as a strong ETag: pollers revalidate
		// with If-None-Match and pay one 304 instead of re-downloading
		// the result payload. Non-terminal (still-changing) and
		// journal-recovered (keyless) views stay unconditional.
		if v.Status == service.StatusDone && v.CacheKey != "" {
			etag := `"` + v.CacheKey + `"`
			w.Header().Set("ETag", etag)
			if v.Cache != "" {
				w.Header().Set("X-Cache-Status", v.Cache)
			}
			if etagMatch(r.Header.Get("If-None-Match"), etag) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Readiness flips before liveness ends: once shutdown begins
		// the probe answers 503 "draining" so load balancers stop
		// routing new work here while in-flight jobs finish.
		if draining != nil && draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		svc.Metrics().WriteJSON(w)
	})
	return mux
}

// etagMatch implements If-None-Match for a strong ETag: "*" matches
// anything, otherwise any member of the comma-separated candidate list
// may match. Weak-comparison semantics (RFC 9110 §13.1.2) apply on GET,
// so a W/ prefix on a candidate is ignored.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
