package main

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/netlist"
)

func writeBench(t *testing.T, c *netlist.Circuit) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), c.Name+".bench")
	if err := os.WriteFile(path, []byte(netlist.BenchString(c)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func defaultConfig() runConfig {
	return runConfig{frames: 6, backtracks: 50, budget: 100_000, random: true, workers: 1}
}

func TestRunGeneratesTests(t *testing.T) {
	path := writeBench(t, netlist.Fig2C1())
	var out, errw bytes.Buffer
	if err := run(path, defaultConfig(), &out, &errw); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no test vectors written")
	}
	if !strings.Contains(errw.String(), "fault coverage") {
		t.Fatalf("missing coverage report:\n%s", errw.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "nope.bench"), defaultConfig(), io.Discard, io.Discard); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestRunParallelMatchesSerial runs the CLI path at several worker
// counts and requires identical emitted test sets.
func TestRunParallelMatchesSerial(t *testing.T) {
	path := writeBench(t, netlist.Fig2C1())
	var want bytes.Buffer
	if err := run(path, defaultConfig(), &want, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		cfg := defaultConfig()
		cfg.workers = workers
		var out, errw bytes.Buffer
		if err := run(path, cfg, &out, &errw); err != nil {
			t.Fatal(err)
		}
		if out.String() != want.String() {
			t.Fatalf("workers=%d: test set differs from serial", workers)
		}
		if !strings.Contains(errw.String(), "parallel:") {
			t.Fatalf("workers=%d: no parallel stats line:\n%s", workers, errw.String())
		}
	}
}

// TestRunCheckpointResume runs with a checkpoint, then resumes from the
// completed decision log: the CLI must note the resume and emit the
// byte-identical test set.
func TestRunCheckpointResume(t *testing.T) {
	path := writeBench(t, netlist.Fig5N1())
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := defaultConfig()
	cfg.random = false // every fault is a decided (checkpointed) boundary
	cfg.checkpoint = ckpt
	cfg.every = 1

	var want bytes.Buffer
	if err := run(path, cfg, &want, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	var out, errw bytes.Buffer
	if err := run(path, cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "resuming from") {
		t.Fatalf("no resume note:\n%s", errw.String())
	}
	if out.String() != want.String() {
		t.Fatal("resumed run emitted a different test set")
	}
}

// TestRunResumeDiscardsGarbage: -checkpoint over an unusable checkpoint
// file -- rotten bytes, or a well-formed log that diverges during
// replay -- notes the discard and still completes with the clean-run
// output.
func TestRunResumeDiscardsGarbage(t *testing.T) {
	path := writeBench(t, netlist.Fig5N1())
	cfg := defaultConfig()
	cfg.random = false
	var want bytes.Buffer
	if err := run(path, cfg, &want, io.Discard); err != nil {
		t.Fatal(err)
	}

	// A complete checkpoint with two decisions swapped keeps its
	// identity hashes but no longer replays against this run.
	complete := filepath.Join(t.TempDir(), "complete.ckpt")
	ccfg := cfg
	ccfg.checkpoint = complete
	ccfg.every = 1
	if err := run(path, ccfg, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	ck, err := atpg.LoadCheckpoint(complete)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Decided) < 2 {
		t.Fatalf("checkpoint has %d decisions, need 2 to swap", len(ck.Decided))
	}
	ck.Decided[0], ck.Decided[1] = ck.Decided[1], ck.Decided[0]

	for name, data := range map[string][]byte{
		"garbage":   []byte("not a checkpoint"),
		"divergent": ck.Encode(),
	} {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		if err := os.WriteFile(ckpt, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.checkpoint = ckpt
		rcfg.every = 1
		var out, errw bytes.Buffer
		if err := run(path, rcfg, &out, &errw); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(errw.String(), "ignoring unusable checkpoint") {
			t.Fatalf("%s: no discard note:\n%s", name, errw.String())
		}
		if out.String() != want.String() {
			t.Fatalf("%s: post-discard run emitted a different test set", name)
		}
	}
}

// TestResumeRequiresCheckpointFlag: resuming is asked for with
// -checkpoint alone. -resume is not a flag, with or without
// -checkpoint, so it is a usage error rather than a silent no-op.
func TestResumeRequiresCheckpointFlag(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck")
	for _, args := range [][]string{
		{"-resume", "in.bench"},
		{"-checkpoint", ck, "-resume", "in.bench"},
	} {
		var errw bytes.Buffer
		if code := cliMain(args, &errw); code != 2 {
			t.Fatalf("%q: exit code %d, want 2", args, code)
		}
		if !strings.Contains(errw.String(), "flag provided but not defined: -resume") {
			t.Fatalf("%q: missing usage message:\n%s", args, errw.String())
		}
		if _, err := os.Stat(ck); !os.IsNotExist(err) {
			t.Fatalf("%q: checkpoint file touched by a rejected command line (stat: %v)", args, err)
		}
	}
}

// TestRunInterruptedReportsPrefixCoverage cuts a parallel run off with
// a tiny -timeout and checks the prefix-coverage line of the
// partial-results contract appears.
func TestRunInterruptedReportsPrefixCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 8, Outputs: 8, Gates: 500, DFFs: 24, MaxFanin: 4,
	})
	path := writeBench(t, c)
	cfg := defaultConfig()
	cfg.workers = 4
	cfg.backtracks = 200
	cfg.timeout = 30 * time.Millisecond
	var out, errw bytes.Buffer
	if err := run(path, cfg, &out, &errw); err != nil {
		t.Fatal(err)
	}
	msg := errw.String()
	if !strings.Contains(msg, "interrupted") {
		t.Skip("run finished before the timeout fired; nothing to assert")
	}
	if !strings.Contains(msg, "prefix fault coverage") && !strings.Contains(msg, "no faults processed") {
		t.Fatalf("interrupted run missing prefix coverage report:\n%s", msg)
	}
}

// TestRunCacheDir runs the CLI twice against one cache directory: the
// cold run generates and stores, the warm run is served from the cache
// with a byte-identical test set on stdout.
func TestRunCacheDir(t *testing.T) {
	path := writeBench(t, netlist.Fig2C1())
	cfg := defaultConfig()
	cfg.cacheDir = filepath.Join(t.TempDir(), "cache")

	var cold, coldErr bytes.Buffer
	if err := run(path, cfg, &cold, &coldErr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(coldErr.String(), "served from cache") {
		t.Fatalf("cold run claimed a cache hit:\n%s", coldErr.String())
	}
	var warm, warmErr bytes.Buffer
	if err := run(path, cfg, &warm, &warmErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warmErr.String(), "served from cache") {
		t.Fatalf("warm run did not report the cache hit:\n%s", warmErr.String())
	}
	if warm.String() != cold.String() {
		t.Fatal("cached test set differs from the cold run")
	}

	// Different options = different key: no false hit.
	cfg2 := cfg
	cfg2.backtracks = cfg.backtracks + 1
	var other, otherErr bytes.Buffer
	if err := run(path, cfg2, &other, &otherErr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(otherErr.String(), "served from cache") {
		t.Fatalf("changed options still hit the cache:\n%s", otherErr.String())
	}
}
