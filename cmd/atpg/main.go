// Command atpg runs the sequential structural test generator on a
// bench-format circuit and writes the generated test set (one vector
// per line) to stdout; coverage and effort statistics go to stderr.
// With -checkpoint the run persists its progress to that file and,
// when the file already holds a usable log of the same run, resumes
// from it; the test set is the one a fresh run would emit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/resultcache"
	"repro/internal/sim"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// runConfig carries the parsed flags into run.
type runConfig struct {
	frames     int
	backtracks int
	budget     int64
	random     bool
	workers    int
	timeout    time.Duration
	checkpoint string
	every      int
	cacheDir   string
}

// cliMain parses the arguments and dispatches; exit code 2 marks a
// usage error (unknown flag, wrong operand count), 1 a runtime failure.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("atpg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.IntVar(&cfg.frames, "frames", 10, "maximum time frames")
	fs.IntVar(&cfg.backtracks, "backtracks", 200, "PODEM backtrack limit per fault")
	fs.Int64Var(&cfg.budget, "budget", 2_000_000, "gate-evaluation budget per fault (0 = unlimited)")
	fs.BoolVar(&cfg.random, "random", true, "run the random-sequence pre-phase")
	fs.IntVar(&cfg.workers, "workers", 1, "fault-shard workers for the deterministic phase (output is identical at any count)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock budget (0 = unlimited); partial results are still reported")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "durable checkpoint file; written atomically as faults are decided, resumed from when it holds a usable prior run")
	fs.IntVar(&cfg.every, "checkpoint-every", atpg.DefaultCheckpointEvery, "checkpoint cadence in decided faults")
	fs.StringVar(&cfg.cacheDir, "cache-dir", "", "content-addressed result cache directory; an identical prior run is served from it without generating")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: atpg [flags] in.bench\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if err := run(fs.Arg(0), cfg, os.Stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "atpg:", err)
		return 1
	}
	return 0
}

func run(path string, cfg runConfig, stdout, stderr io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	c, err := netlist.ParseBench(path, f)
	f.Close()
	if err != nil {
		return err
	}
	reps, _ := fault.Collapse(c)
	opt := atpg.DefaultOptions()
	opt.MaxFrames = cfg.frames
	opt.MaxBacktracks = cfg.backtracks
	opt.MaxEvalsPerFault = cfg.budget
	opt.RandomPhase = cfg.random
	opt.Workers = cfg.workers
	if cfg.checkpoint != "" {
		// A usable checkpoint seeds the run with the prior decisions; an
		// unusable one (corrupt, version skew, different circuit or
		// options, or a log that diverges on replay) is discarded with a
		// note and the run starts clean. Either way the test set is the
		// one a fresh run emits.
		opt.Checkpoint.Path = cfg.checkpoint
		opt.Checkpoint.Every = cfg.every
		opt.Checkpoint.OnResume = func(resumed bool, err error) {
			if resumed {
				fmt.Fprintf(stderr, "atpg: resuming from %s\n", cfg.checkpoint)
			} else {
				fmt.Fprintf(stderr, "atpg: ignoring unusable checkpoint %s: %v\n", cfg.checkpoint, err)
			}
		}
	}

	// Ctrl-C (or the -timeout deadline) interrupts the generator at its
	// next cooperative check; the tests found so far are still written,
	// with a note that the run was cut short.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// With a cache directory, an identical earlier run (same circuit,
	// fault list and result-affecting options) is decoded from its entry
	// instead of regenerated; misses run normally and store their result
	// on success. Cancellation still reports partial results -- CachedRun
	// deliberately takes no single-flight slot for exactly that reason.
	var cache *resultcache.Cache
	if cfg.cacheDir != "" {
		cache = resultcache.New(resultcache.Config{Dir: cfg.cacheDir})
		cache.Sweep() // collect torn residue before consulting the store
	}
	res, src, ctxErr := atpg.CachedRun(ctx, cache, c, reps, opt)
	if src != resultcache.SourceNone {
		fmt.Fprintf(stderr, "atpg: result served from cache (%s); effort counters are the original run's, time is not re-spent\n", src)
	}
	if ctxErr != nil {
		fmt.Fprintf(stderr, "atpg: interrupted (%v); reporting partial results\n", ctxErr)
		reportPrefix(stderr, res, len(reps))
		if cfg.checkpoint != "" {
			if _, statErr := os.Stat(cfg.checkpoint); statErr == nil {
				fmt.Fprintf(stderr, "atpg: checkpoint written to %s; rerun with the same -checkpoint to continue\n", cfg.checkpoint)
			}
		}
	}

	det, red, ab := res.Counts()
	fmt.Fprintf(stderr, "%s: %d collapsed faults\n", c.Name, len(reps))
	fmt.Fprintf(stderr, "detected %d, redundant %d, aborted %d\n", det, red, ab)
	fmt.Fprintf(stderr, "fault coverage %.2f%%, fault efficiency %.2f%%\n",
		res.FaultCoverage(), res.FaultEfficiency())
	fmt.Fprintf(stderr, "effort: %d gate evaluations, %d backtracks, %v\n",
		res.Effort.Evals, res.Effort.Backtracks, res.Effort.Time)
	if ps := res.Parallel; ps != nil {
		fmt.Fprintf(stderr, "parallel: %d workers, %d speculated (%d used, %d wasted), %d fortuitous skips\n",
			ps.Workers, ps.Speculated, ps.Used, ps.Wasted, ps.Fortuitous)
	}
	fmt.Fprintf(stderr, "test set: %d vectors in %d sequences\n", len(res.TestSet), len(res.Tests))
	for _, v := range res.TestSet {
		fmt.Fprintln(stdout, sim.VecString(v))
	}
	return nil
}

// reportPrefix prints the coverage of the fault prefix an interrupted
// run actually processed. The overall coverage line below counts every
// undecided fault as aborted, which understates a run that was cut off
// mid-shard; this line scores only the faults the generator reached.
func reportPrefix(stderr io.Writer, res *atpg.Result, total int) {
	processed := len(res.Status)
	if processed == 0 {
		fmt.Fprintf(stderr, "atpg: no faults processed before interruption\n")
		return
	}
	det := 0
	for _, st := range res.Status {
		if st == atpg.StatusDetected {
			det++
		}
	}
	fmt.Fprintf(stderr, "atpg: processed %d/%d faults before interruption; prefix fault coverage %.2f%%\n",
		processed, total, 100*float64(det)/float64(processed))
}
