// Command workerd is a lightweight ATPG shard worker: a single
// execution slot (by default) behind the shard protocol that
// internal/dispatch fans jobs out over.
//
// Endpoints:
//
//	POST   /v1/shards       submit a shard; returns {"id": ...}
//	GET    /v1/shards/{id}  poll status; carries the latest partial
//	                        checkpoint so the dispatcher can migrate
//	                        this worker's work if it dies
//	DELETE /v1/shards/{id}  cancel and forget a shard
//	GET    /healthz         readiness probe: 200 "ok" while serving,
//	                        503 "draining" once SIGTERM drain begins
//	GET    /metrics         worker counters as one JSON object
//	GET    /v1/logs         tail of the in-memory log ring
//
// A worker holds no durable state: everything it computes is a pure
// function of the submitted shard, re-runnable anywhere, so crash
// recovery is the dispatcher's job (retry elsewhere from the last
// checkpoint), not the worker's.
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
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/httpmw"
	"repro/internal/logger"
	"repro/internal/metrics"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr)) }

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("workerd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":9100", "listen address (use :0 for an ephemeral port)")
	slots := fs.Int("slots", 1, "concurrent shard slots")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logBuffer := fs.Int("log-buffer", logger.DefaultCapacity, "in-memory log ring capacity in records, 1 to 1048576 (rounded up to a power of two)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: workerd [-addr :9100] [-slots n] [-log-level info] [-log-buffer n]\n")
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
		fmt.Fprintln(stderr, "workerd:", err)
		return 2
	}
	if *logBuffer < 1 || *logBuffer > logger.MaxCapacity {
		fmt.Fprintf(stderr, "workerd: -log-buffer %d outside [1, %d]\n", *logBuffer, logger.MaxCapacity)
		fs.Usage()
		return 2
	}
	if err := serve(*addr, *slots, logger.New(level, *logBuffer), stdout); err != nil {
		fmt.Fprintln(stderr, "workerd:", err)
		return 1
	}
	return 0
}

// buildHandler mounts the worker's shard API plus the log tail behind
// the shared middleware chain. Shards arrive as whole circuits in the
// request body, hence the generous 64 MiB limit.
func buildHandler(w *dispatch.Worker, lg *logger.Logger, reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", w.Handler())
	mux.Handle("/v1/logs", lg.TailHandler())
	return httpmw.Stack(httpmw.Config{
		Log:      lg,
		Registry: reg,
		MaxBody:  64 << 20,
	})(mux)
}

func serve(addr string, slots int, lg *logger.Logger, stdout io.Writer) error {
	reg := metrics.NewRegistry()
	w := dispatch.NewWorker(dispatch.WorkerConfig{
		MaxConcurrent: slots,
		Metrics:       reg,
		Logger:        lg,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           buildHandler(w, lg, reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// The actual bound address, so callers using :0 can parse the port.
	fmt.Fprintf(stdout, "workerd listening on %s\n", ln.Addr())

	select {
	case err := <-errc:
		w.Close()
		return err
	case <-ctx.Done():
		// Readiness flips before the listener closes: probes see 503
		// "draining" immediately, so the dispatcher stops picking this
		// worker while its in-flight shards finish under the budget.
		w.StartDraining()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		w.Close()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Fprintln(stdout, "workerd: shut down")
		return nil
	}
}
