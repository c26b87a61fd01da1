// Command e2e is the end-to-end benchmark of the retime-for-test job
// service: it builds cmd/servd and cmd/workerd, starts them on
// loopback, drives one of four job workloads over HTTP from two
// closed-loop clients for a fixed time, checks every result, and prints
// each metric with its unit and sample count. The last line of standard
// output is a JSON summary.
//
//	bash benchmarks/e2e/run.sh --workload fig6_hot --seed 1 --seconds 10 --trace 0
//	bash benchmarks/e2e/run.sh -compare parent.jsonl change.jsonl
//
// See README.md for the workloads, the metric catalog and the protocol
// for comparing two commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// setupReps is how many times a run sets up (generates its inputs and
// starts fresh daemons); setup_s is their median.
const setupReps = 3

func main() { os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr)) }

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	seed := fs.Int64("seed", 1, "workload seed: ATPG seeds, random vectors and submission order")
	seconds := fs.Int("seconds", 10, "timed phase length; the phase ends on the next round boundary, after two rounds at the earliest")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "append one JSON record per workload run to this file")
	spans := fs.String("spans", "", "traced run: write the spans as JSON to this file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: parent.jsonl change.jsonl")
	update := fs.Bool("update-digests", false, "with -seed 1: check everything but the recorded digests, then record this run's digests in digests.json")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: e2e [--workload name|all] [--seed n] [--seconds n] [--trace 0|1] [-out file] [-spans file] [-update-digests]")
		fmt.Fprintln(stderr, "       e2e -compare parent.jsonl change.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	wantArgs := 0
	if *compare {
		wantArgs = 2
	}
	if fs.NArg() != wantArgs || *seconds < 1 || (*trace != 0 && *trace != 1) || (*update && *seed != 1) {
		fs.Usage()
		return 2
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fmt.Fprintf(stderr, "e2e: unknown workload %q\n", n)
			return 2
		}
	}
	repo, err := findRepo()
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	if *compare {
		if err := runCompare(stdout, filepath.Join(repo, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
		return 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, repo: repo, spansPath: *spans, updateDigests: *update}
	results, err := runAllWorkloads(ctx, cfg, names, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecords(*out, results); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
	}
	summary := summarize(results)
	if *update && summary.Correct {
		if err := writeDigests(filepath.Join(repo, "benchmarks", "e2e", "digests.json"), results); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

type runConfig struct {
	seed      int64
	seconds   int
	trace     bool
	repo      string // repository root: daemons are built from here
	binDir    string // where the daemons were built
	workDir   string // per-run scratch: journals, cache directories
	spansPath string
	host      hostStamp
	// updateDigests skips the recorded digests: the run is recording
	// new ones.
	updateDigests bool
}

// hostStamp names the machine and build a run was measured on.
type hostStamp struct {
	NProc   int    `json:"nproc"`
	CPU     string `json:"cpu"`
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	Go      string `json:"go"`
	GitHead string `json:"git_head"`
}

// runRecord is one workload run, as appended to -out files.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      hostStamp         `json:"host"`
	Servd     []string          `json:"servd_flags"`
	Workerd   []string          `json:"workerd_flags,omitempty"`
	Clients   int               `json:"clients"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   []metric          `json:"metrics"`
	Digests   map[string]string `json:"-"`
	spans     *spansDoc
}

// runAllWorkloads builds the daemons once, runs each workload, and
// removes the scratch directory whatever happens.
func runAllWorkloads(ctx context.Context, cfg runConfig, names []string, stdout io.Writer) ([]*runRecord, error) {
	build := filepath.Join(cfg.repo, ".bench_build")
	cfg.binDir = filepath.Join(build, "bin")
	if err := os.MkdirAll(cfg.binDir, 0o755); err != nil {
		return nil, err
	}
	if err := buildDaemons(ctx, cfg.repo, cfg.binDir); err != nil {
		return nil, err
	}
	var err error
	if cfg.workDir, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	digests := map[string]string{}
	if !cfg.updateDigests {
		if digests, err = loadDigests(); err != nil {
			return nil, err
		}
	}
	cfg.host = stamp(cfg.repo)
	var results []*runRecord
	var docs []*spansDoc
	for _, name := range names {
		rec, err := runWorkload(ctx, cfg, name, newChecker(digests))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		printRecord(stdout, rec)
		results = append(results, rec)
		if rec.spans != nil {
			docs = append(docs, rec.spans)
		}
	}
	if cfg.spansPath != "" && len(docs) > 0 {
		data, err := json.Marshal(docs)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.spansPath, data, 0o644); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runWorkload is one run: set-up (repeated), warm-up, timed phase,
// checks, and for a traced run the replay; then a clean shutdown.
func runWorkload(ctx context.Context, cfg runConfig, name string, ck *checker) (*runRecord, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var wl *workload
	var cl *cluster
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if wl, err = newWorkload(name, cfg.seed); err != nil {
			return nil, err
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", name, rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if cl, err = startCluster(ctx, hc, cfg.binDir, dir, wl.backends); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			if err := cl.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			cl.kill()
		}
	}()
	rec := &runRecord{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: cfg.host, Servd: relFlags(cfg.repo, cl.flags), Clients: clients}
	if wl.backends > 0 {
		rec.Workerd = []string{"-addr", "127.0.0.1:0", "-slots", "1"}
	}
	base := cl.base()

	// Warm-up: fig6_hot fills the cache; its results are verified in
	// full and become the reference every timed hit must equal.
	t0 := time.Now()
	warm := runAll(ctx, hc, base, wl.warmup)
	warmup := time.Since(t0)
	hot := len(wl.warmup) > 0
	refs := make(hotRefs)
	for _, r := range warm {
		if ck.check(r, true); !r.ok() {
			rec.Attempted++
			rec.Failed++
			rec.Failures = append(rec.Failures, "warm-up: "+r.err)
			continue
		}
		refs[r.job.key] = r.result
	}

	var before snapshot
	var journal0, cache0, rss0 int64
	var err error
	if cfg.trace {
		if before, err = fetchSnapshot(ctx, hc, base); err != nil {
			return nil, err
		}
		journal0, cache0 = fileSize(filepath.Join(cl.dir, "jobs.journal")), dirBytes(filepath.Join(cl.dir, "cache"))
		if rss0, err = procStatusKB(cl.servd.pid(), "VmRSS"); err != nil {
			return nil, err
		}
	}
	s0, w0, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var recs []*jobRecord
	var hwm int64
	var hwmErr error
	closedLoop(ctx, hc, base, wl, time.Duration(cfg.seconds)*time.Second, func(r *jobRecord) {
		if hot {
			refs.check(r)
			r.result = nil // the reference already holds these bytes
		}
		mu.Lock()
		defer mu.Unlock()
		recs = append(recs, r)
		if len(recs) == wl.memJobs {
			hwm, hwmErr = cl.hwmKB()
		}
	})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	s1, w1, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	if hwm == 0 && hwmErr == nil {
		hwm, hwmErr = cl.hwmKB()
	}
	if hwmErr != nil {
		return nil, hwmErr
	}
	var ti traceInputs
	if cfg.trace {
		after, err := fetchSnapshot(ctx, hc, base)
		if err != nil {
			return nil, err
		}
		rss1, err := procStatusKB(cl.servd.pid(), "VmRSS")
		if err != nil {
			return nil, err
		}
		ti = traceInputs{
			kind: string(wl.jobKind()), diff: after.since(before), after: after,
			journalBytes: fileSize(filepath.Join(cl.dir, "jobs.journal")) - journal0,
			cacheDisk:    dirBytes(filepath.Join(cl.dir, "cache")) - cache0,
			rssGrowthKB:  rss1 - rss0, workerCPU: w1 - w0, warmup: warmup,
		}
	}

	// Checks: every job gets the structural checks; the first round,
	// every circuit once, is also re-simulated in process (all of them
	// would add half the timed phase again to fsim_sweep), and its
	// recomputeCircuit job recomputed from scratch.
	sort.Slice(recs, func(i, k int) bool { return recs[i].job.n < recs[k].job.n })
	if !hot {
		for _, r := range recs {
			first := r.job.n <= wl.roundLen()
			ck.check(r, first)
			if first && r.ok() && r.job.circ.name == recomputeCircuit && r.job.req.Kind != service.KindFaultSim {
				if err := recompute(ctx, r); err != nil {
					r.err = fmt.Sprintf("check %s (%s #%d): %v", r.id, r.job.circ.name, r.job.n, err)
				}
			}
		}
	}
	var ok []*jobRecord
	var lat []float64
	for _, r := range recs {
		rec.Attempted++
		if !r.ok() {
			rec.Failed++
			if len(rec.Failures) < 10 {
				rec.Failures = append(rec.Failures, r.err)
			}
			continue
		}
		ok = append(ok, r)
		lat = append(lat, ms(r.latency()))
	}

	if cfg.trace {
		tr := &tracer{}
		for _, r := range ok {
			tr.addJob(r)
		}
		if err := replayWorkload(ctx, tr, wl, cl, ok, warm, &ti); err != nil {
			rec.Failed++
			rec.Failures = append(rec.Failures, err.Error())
		}
		ti.recs = ok
		spans := tr.finish()
		if bad := backwardSpans(spans); bad > 0 {
			rec.Failed++
			rec.Failures = append(rec.Failures, fmt.Sprintf("%d spans end before they start: server timestamps out of order or outside POST start to observed", bad))
		}
		rec.Metrics = layerMetrics(ti)
		rec.spans = newSpansDoc(rec, spans, ti)
	} else {
		rec.Metrics = e2eMetrics(e2eInputs{latMS: lat, cpu: (s1 - s0) + (w1 - w0), hwmKB: hwm, setups: setups})
	}
	stopped = true
	if err := cl.stop(); err != nil {
		rec.Failed++
		rec.Failures = append(rec.Failures, "shutdown: "+err.Error())
	}
	rec.Digests = ck.firstRound(recs, wl.roundLen())
	return rec, nil
}

// replayWorkload replays each distinct input of the first round (the
// warm-up set for fig6_hot) plus the two service-layer probes.
func replayWorkload(ctx context.Context, tr *tracer, wl *workload, cl *cluster, ok, warm []*jobRecord, ti *traceInputs) error {
	var backends []string
	for _, w := range cl.workers {
		backends = append(backends, "http://"+w.addr)
	}
	rp := newReplayer(ctx, tr, backends)
	ti.rp = rp
	inputs := warm
	if len(inputs) == 0 {
		for _, r := range ok {
			if r.job.n <= wl.roundLen() {
				inputs = append(inputs, r)
			}
		}
	}
	var errs []error
	for _, r := range inputs {
		errs = append(errs, rp.replay(r))
	}
	tr.do("replay", "httpmw.stack", 0, func(int) { ti.stackOverhead = stackOverhead() })
	largest := wl.circuits[0].bench
	for _, c := range wl.circuits {
		if len(c.bench) > len(largest) {
			largest = c.bench
		}
	}
	tr.do("replay", "service.submit_journal", 0, func(int) {
		var err error
		ti.journalCost, err = journalSubmitCost(cl.dir, largest)
		errs = append(errs, err)
	})
	return errors.Join(errs...)
}

// jobKind is the service job kind the workload submits.
func (w *workload) jobKind() service.Kind {
	switch w.name {
	case wlFsimSweep:
		return service.KindFaultSim
	case wlATPGSharded:
		return service.KindATPG
	}
	return service.KindDeriveTests
}

// relFlags rewrites absolute paths among flags relative to the
// repository root, so run records name no machine's directories.
func relFlags(repo string, flags []string) []string {
	out := slices.Clone(flags)
	for i, f := range out {
		if rel, err := filepath.Rel(repo, f); err == nil && filepath.IsAbs(f) {
			out[i] = rel
		}
	}
	return out
}

func fetchSnapshot(ctx context.Context, hc *http.Client, base string) (snapshot, error) {
	body, code, err := do(ctx, hc, http.MethodGet, base+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		return snapshot{}, fmt.Errorf("GET /metrics: HTTP %d %v", code, err)
	}
	return parseSnapshot(body)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func stamp(repo string) hostStamp {
	h := hostStamp{NProc: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version(), CPU: "unknown", GitHead: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repo
	if out, err := cmd.Output(); err == nil {
		h.GitHead = strings.TrimSpace(string(out))
	}
	return h
}

func printRecord(w io.Writer, rec *runRecord) {
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s, %ds, %d clients): %d jobs attempted, %d failed, fail_ratio %.4f\n",
		rec.Workload, rec.Seed, mode, rec.Seconds, rec.Clients, rec.Attempted, rec.Failed, failRatio(rec))
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	for _, m := range rec.Metrics {
		fmt.Fprintf(w, "  %-32s %14.6g %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// passed reports whether every job of the run completed and every check
// passed; only such runs are compared.
func (rec *runRecord) passed() bool { return rec.Attempted > 0 && rec.Failed == 0 }

func failRatio(rec *runRecord) float64 {
	if rec.Attempted == 0 {
		return 1
	}
	return float64(rec.Failed) / float64(rec.Attempted)
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds the runs into the summary line. With more than one
// workload the metric names are prefixed with the workload's.
func summarize(results []*runRecord) summary {
	s := summary{Correct: true, Metrics: make(map[string]summaryValue)}
	for _, r := range results {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			s.Metrics[name] = summaryValue{m.Value, m.Unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

func appendRecords(path string, results []*runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// writeDigests records the runs' digests over the embedded ones, so
// updating one workload keeps the other workloads' digests.
func writeDigests(path string, results []*runRecord) error {
	all, err := loadDigests()
	if err != nil {
		return err
	}
	for _, r := range results {
		for k, v := range r.Digests {
			all[k] = v
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spansDoc is one traced run's spans plus the server-side stage
// breakdown of service.run, its unstaged remainder included.
type spansDoc struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Host        hostStamp          `json:"host"`
	RunMeanMS   float64            `json:"service_run_mean_ms"`
	StageMeanMS map[string]float64 `json:"stage_mean_ms"`
	Spans       []span             `json:"spans"`
}

func newSpansDoc(rec *runRecord, spans []span, ti traceInputs) *spansDoc {
	jobs := ti.diff.hists["jobs.latency."+ti.kind]
	doc := &spansDoc{Workload: rec.Workload, Seed: rec.Seed, Host: rec.Host, RunMeanMS: ms(jobs.mean()), StageMeanMS: make(map[string]float64), Spans: spans}
	for _, m := range rec.Metrics {
		if s, ok := strings.CutPrefix(m.Name, "stage."); ok {
			doc.StageMeanMS[strings.TrimSuffix(s, "_ms")] = m.Value
		}
		if m.Name == "service.unstaged_ms" {
			doc.StageMeanMS["unstaged"] = m.Value
		}
	}
	return doc
}
