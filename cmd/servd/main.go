// Command servd serves the retime-for-test job service over HTTP.
//
// Endpoints:
//
//	POST   /v1/jobs        submit a job (JSON service.Request); returns {"id": ...}
//	GET    /v1/jobs        list jobs in submission order
//	GET    /v1/jobs/{id}   poll one job's status and result
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /healthz        liveness probe
//	GET    /metrics        the metrics registry as one JSON object
//
// Circuits are submitted as ISCAS-89 bench text in the request body;
// see the README section "Running the service" for curl examples.
//
// Identical submissions are answered from a request-keyed result
// cache (disable with -cache-bytes -1; persist across restarts with
// -cache-dir). A completed job's GET carries a strong ETag derived
// from its cache key plus an X-Cache-Status header; polling with
// If-None-Match returns 304 Not Modified until the payload changes.
//
// With -journal, accepted jobs are recorded in an append-only
// JSON-lines file and survive restarts: on startup the journal is
// replayed and any job that was queued or running when the previous
// process died is re-queued. On SIGINT/SIGTERM the server drains
// gracefully for -drain before cancelling stragglers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/httpmw"
	"repro/internal/logger"
	"repro/internal/metrics"
	"repro/internal/service"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr)) }

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "job queue depth")
	timeout := fs.Duration("timeout", 60*time.Second, "default per-job timeout")
	journal := fs.String("journal", "", "job journal path (empty = in-memory only)")
	syncJournal := fs.Bool("sync-journal", false, "fsync the journal after every entry")
	watchdog := fs.Duration("watchdog", 0, "stuck-progress window: cancel and requeue a job with no progress for this long (0 = off)")
	cacheBytes := fs.Int64("cache-bytes", 0, "in-memory result cache budget (0 = default 64 MiB, negative = caching off)")
	cacheDir := fs.String("cache-dir", "", "durable result cache directory (empty = memory-only cache)")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	maxBody := fs.Int64("max-body", 8<<20, "request body size limit in bytes")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof and /v1/logs on this address (empty = off); keep it loopback-only")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logBuffer := fs.Int("log-buffer", logger.DefaultCapacity, "in-memory log ring capacity in records, 1 to 1048576 (rounded up to a power of two)")
	var backends multiFlag
	fs.Var(&backends, "backend", "worker backend base URL for distributed ATPG (repeatable, e.g. -backend http://127.0.0.1:9100)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: servd [-addr :8080] [-workers n] [-queue n] [-timeout d] [-journal file] [-drain d] [-pprof-addr :6060] [-backend url]...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	level, err := logger.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "servd:", err)
		return 2
	}
	// Out-of-range values are usage errors, never silently replaced:
	// the service would swap a zero queue or timeout for its default,
	// a negative worker count for GOMAXPROCS and a negative drain or
	// watchdog window for none, a body limit below 1 would turn the
	// limit off, and a cache directory would be ignored with the cache
	// off.
	var bad string
	switch {
	case *logBuffer < 1 || *logBuffer > logger.MaxCapacity:
		bad = fmt.Sprintf("-log-buffer %d outside [1, %d]", *logBuffer, logger.MaxCapacity)
	case *queue < 1:
		bad = fmt.Sprintf("-queue %d must be at least 1", *queue)
	case *timeout <= 0:
		bad = fmt.Sprintf("-timeout %v must be positive", *timeout)
	case *maxBody < 1:
		bad = fmt.Sprintf("-max-body %d must be at least 1", *maxBody)
	case *workers < 0:
		bad = fmt.Sprintf("-workers %d must not be negative", *workers)
	case *drain < 0:
		bad = fmt.Sprintf("-drain %v must not be negative", *drain)
	case *watchdog < 0:
		bad = fmt.Sprintf("-watchdog %v must not be negative", *watchdog)
	case *cacheBytes < 0 && *cacheDir != "":
		bad = fmt.Sprintf("-cache-dir %q needs the cache, which -cache-bytes %d turns off", *cacheDir, *cacheBytes)
	}
	if bad != "" {
		fmt.Fprintln(stderr, "servd:", bad)
		fs.Usage()
		return 2
	}
	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		JournalPath:    *journal,
		SyncJournal:    *syncJournal,
		WatchdogWindow: *watchdog,
		CacheBytes:     *cacheBytes,
		CacheDir:       *cacheDir,
		Backends:       backends,
		Logger:         logger.New(level, *logBuffer),
		// One registry is shared by the middleware (per-route latency,
		// in-flight, panics) and the service (job/stage counters), so
		// GET /metrics reports both layers in a single document.
		Metrics: metrics.NewRegistry(),
	}
	if err := serve(*addr, cfg, *drain, *maxBody, *pprofAddr, stdout); err != nil {
		fmt.Fprintln(stderr, "servd:", err)
		return 1
	}
	return 0
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// startPprof serves the profiler mux on its own listener so enabling
// it never exposes /debug/pprof/* on the public API address. It
// returns the server (for Shutdown during drain) and the actual bound
// address (addr may use :0).
func startPprof(addr string, handler http.Handler, stdout io.Writer) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("pprof listener: %w", err)
	}
	psrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		if err := psrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stdout, "servd: pprof listener:", err)
		}
	}()
	return psrv, ln.Addr().String(), nil
}

func serve(addr string, cfg service.Config, drain time.Duration, maxBody int64, pprofAddr string, stdout io.Writer) error {
	svc, err := service.Open(cfg)
	if err != nil {
		return err
	}

	var psrv *http.Server
	if pprofAddr != "" {
		// The private listener gets the same middleware chain as the
		// API (no body limit: pprof's symbol endpoint posts its own
		// small payloads), so profiler hits are logged and measured too.
		private := httpmw.Stack(httpmw.Config{
			Log:      cfg.Logger,
			Registry: svc.Metrics(),
			Route:    routePattern,
		})(privateMux(cfg.Logger))
		var actual string
		psrv, actual, err = startPprof(pprofAddr, private, stdout)
		if err != nil {
			svc.Close()
			return err
		}
		fmt.Fprintf(stdout, "servd pprof on %s\n", actual)
	}

	var draining atomic.Bool
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		svc.Close()
		return err
	}
	srv := &http.Server{
		Handler: apiHandler(svc, &draining, cfg.Logger, maxBody),
		// Slow-client limits: a peer trickling headers or a body, or
		// parking idle keep-alive connections, cannot pin goroutines
		// forever. Deliberately no WriteTimeout -- result payloads for
		// large jobs can legitimately take a while to stream.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// The actual bound address, so callers using :0 can parse the port.
	fmt.Fprintf(stdout, "servd listening on %s\n", ln.Addr())

	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
		// Flip readiness first: /healthz answers 503 "draining" for
		// the rest of shutdown, so balancers stop sending work while
		// in-flight requests finish below.
		draining.Store(true)
		shutCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		// The profiler port frees promptly too; a leftover pprof
		// listener would hold the address across a restart.
		if psrv != nil {
			if err := psrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(stdout, "servd: pprof shutdown:", err)
			}
		}
		if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			svc.Close()
			return err
		}
		// HTTP is quiet; now drain the job pool within the same budget.
		// Jobs still running at the deadline are cancelled -- with a
		// journal they re-run on the next start.
		if err := svc.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(stdout, "servd: drain cut short:", err)
		}
		fmt.Fprintln(stdout, "servd: shut down")
		return nil
	}
}
