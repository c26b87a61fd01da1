package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0.75}, {40, 0.75}, {320, 0.96875}, {2000, 0.995}} {
		if got := tailQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, [3]float64{2, 4, 5}},
		{[]float64{2.5, 7}, [3]float64{1.375, 4.75, 8.125}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("quantile median = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 3, Name: "b1", Start: 25, End: 35},
	}
	setSelfTimes(spans)
	want := map[string]int64{"root": 100 - 40 - 10, "a": 20, "b": 30 - 10, "c": 30, "b1": 10}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("span %s self = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestJobSpans(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	rec := func(created time.Duration) *jobRecord {
		return &jobRecord{
			id:        "job-000001",
			postStart: t0,
			created:   t0.Add(created),
			started:   t0.Add(2 * time.Millisecond),
			finished:  t0.Add(900 * time.Millisecond),
			observed:  t0.Add(901 * time.Millisecond),
		}
	}
	tr := &tracer{}
	tr.addJob(rec(300 * time.Microsecond))
	spans := tr.finish()
	if bad := backwardSpans(spans); bad != 0 {
		t.Fatalf("%d backward spans in %+v", bad, spans)
	}
	var sum int64
	for _, s := range spans[1:] {
		sum += s.End - s.Start
	}
	if root := spans[0].End - spans[0].Start; sum != root || spans[0].Self != 0 {
		t.Errorf("children sum to %d of a %d root, root self time %d", sum, root, spans[0].Self)
	}
	// A server that stamps created before the client sent the POST.
	tr = &tracer{}
	tr.addJob(rec(-time.Millisecond))
	if bad := backwardSpans(tr.finish()); bad != 1 {
		t.Errorf("backwardSpans = %d with created 1 ms before the POST, want 1", bad)
	}
}

// The fixture is /metrics from a servd after one fault_sim job, and
// again after two more distinct ones and a repeat of the first (a hit).
func TestSnapshotDiff(t *testing.T) {
	read := func(name string) snapshot {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		s, err := parseSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before, after := read("metrics_before.json"), read("metrics_after.json")
	d := after.since(before)
	for name, want := range map[string]float64{
		"cache.hits": 1, "cache.misses": 2, "cache.stores": 2, "jobs.done.fault_sim": 3,
	} {
		if got := d.nums[name]; got != want {
			t.Errorf("%s diff = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]int64{
		"stage.parse.latency": 3, "stage.collapse.latency": 2, "stage.fsim.latency": 2,
		"jobs.latency.fault_sim": 3, "http.latency.POST /v1/jobs": 3,
	} {
		h := d.hists[name]
		if h.Count != want || h.SumNS <= 0 {
			t.Errorf("%s diff = %+v, want count %d and a positive sum", name, h, want)
		}
	}
	if after.nums["cache.entries"] != 3 {
		t.Errorf("cache.entries gauge = %v, want 3", after.nums["cache.entries"])
	}
	if _, err := parseSnapshot([]byte(`{"x": "not a number"}`)); err == nil {
		t.Error("parseSnapshot accepted a string value")
	}
}

func TestParseStatCPU(t *testing.T) {
	line := "4242 (my daemon) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 37 0 0 20 0 9 0 1000 100000 2000\n"
	got, err := parseStatCPU(line)
	if err != nil || got != 287*clockTick {
		t.Fatalf("parseStatCPU = %v, %v; want %v", got, err, 287*clockTick)
	}
	if _, err := parseStatCPU("4242 (x) S 1"); err == nil {
		t.Error("parseStatCPU accepted a short line")
	}
}

func TestGeneratorDeterministicAndDistinct(t *testing.T) {
	for _, name := range []string{wlFig6Cold, wlFsimSweep} {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		other, err := newWorkload(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		differs := false
		rounds := 3
		for n := 1; n <= rounds*a.roundLen(); n++ {
			ja, jb := a.job(n), b.job(n)
			if string(ja.body) != string(jb.body) {
				t.Fatalf("%s job %d differs between two generators with seed 7", name, n)
			}
			if seen[ja.key] {
				t.Fatalf("%s job %d repeats an earlier request", name, n)
			}
			seen[ja.key] = true
			differs = differs || string(other.job(n).body) != string(ja.body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", name)
		}
		for r := 0; r < rounds; r++ {
			circuits := make(map[string]bool)
			for k := 1; k <= a.roundLen(); k++ {
				circuits[a.job(r*a.roundLen()+k).circ.name] = true
			}
			if len(circuits) != a.roundLen() {
				t.Errorf("%s round %d covers %d circuits, want %d", name, r, len(circuits), a.roundLen())
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		setup       bool
		want        string
	}{
		{"latency up 15%", base, scale(1.15), true, 0.10, false, "regressed"},
		{"latency up 5%", base, scale(1.05), true, 0.10, false, "no worse"},
		{"latency down 20%", base, scale(0.8), true, 0.10, false, "better"},
		{"throughput down 15%", base, scale(0.85), false, 0.10, false, "regressed"},
		{"throughput up 20%", base, scale(1.2), false, 0.10, false, "better"},
		{"spread wider than the bound", []float64{50, 150, 80, 120, 100}, scale(1.05), true, 0.10, false, "unresolved"},
		{"setup +40% but under the 0.1 s floor", []float64{0.2, 0.2, 0.2}, []float64{0.28, 0.28, 0.28}, true, 0.15, true, "no worse"},
		{"setup past the floor", []float64{0.2, 0.2, 0.2}, []float64{0.35, 0.35, 0.35}, true, 0.15, true, "regressed"},
		{"setup +20% of a long set-up", []float64{2, 2, 2}, []float64{2.4, 2.4, 2.4}, true, 0.15, true, "regressed"},
	} {
		if got := verdict(tc.a, tc.b, tc.lowerBetter, tc.bound, tc.setup); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestRunCompareFailedRuns checks that a change whose jobs all failed,
// and so reports zero latency and CPU, is judged failed, not better.
func TestRunCompareFailedRuns(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(latency float64, attempted, failed int) *runRecord {
		return &runRecord{Workload: wlFig6Hot, Attempted: attempted, Failed: failed, Metrics: []metric{{Name: "latency_p50_ms", Value: latency, Unit: "ms"}}}
	}
	parent, passed, broken := filepath.Join(dir, "parent.jsonl"), filepath.Join(dir, "passed.jsonl"), filepath.Join(dir, "broken.jsonl")
	for path, recs := range map[string][]*runRecord{
		parent: {run(10, 100, 0), run(10.1, 100, 0), run(9.9, 100, 0)},
		passed: {run(10, 100, 0), run(10.05, 100, 0), run(9.95, 100, 0)},
		broken: {run(10, 100, 0), run(0, 100, 100), run(0, 0, 0)},
	} {
		if err := appendRecords(path, recs); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ change, want string }{
		{passed, "no worse"},
		{broken, "failed (0 parent, 2 change runs)"},
	} {
		var out strings.Builder
		if err := runCompare(&out, spec, parent, tc.change); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], wlFig6Hot) || !strings.HasSuffix(lines[1], tc.want) {
			t.Errorf("%s: compare printed\n%s\nwant one fig6_hot row ending in %q", filepath.Base(tc.change), out.String(), tc.want)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloadNames)
	}
	same := func(kind string, got []metric, spec [][2]string) {
		if len(got) != len(spec) {
			t.Fatalf("%s: %d reported, %d in BENCHMARK.json", kind, len(got), len(spec))
		}
		for i, m := range got {
			if [2]string{m.Name, m.Unit} != spec[i] {
				t.Errorf("%s %d: reported %s %s, BENCHMARK.json %v", kind, i, m.Name, m.Unit, spec[i])
			}
		}
	}
	var e2e, layers [][2]string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, [2]string{m.Name, m.Unit})
	}
	same("end_to_end", e2eMetrics(e2eInputs{setups: []float64{1}}), e2e)
	same("per_layer", layerMetrics(traceInputs{rp: newReplayer(context.Background(), &tracer{}, nil)}), layers)
}

// TestHotSmoke builds servd, fills its cache with the four fig6_hot
// requests and checks 20 repeat submissions against them.
func TestHotSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds servd and runs the Fig. 6 flow")
	}
	ctx := context.Background()
	repo, err := findRepo()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if err := buildDaemons(ctx, repo, bin); err != nil {
		t.Fatal(err)
	}
	wl, err := newWorkload(wlFig6Hot, 1)
	if err != nil {
		t.Fatal(err)
	}
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	cl, err := startCluster(ctx, hc, bin, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.kill()
	ck := newChecker(digests)
	refs := make(hotRefs)
	for _, r := range runAll(ctx, hc, cl.base(), wl.warmup) {
		if ck.check(r, true); !r.ok() {
			t.Fatalf("warm-up: %s", r.err)
		}
		refs[r.job.key] = r.result
	}
	var jobs []*job
	for n := 1; n <= 20; n++ {
		jobs = append(jobs, wl.job(n))
	}
	for _, r := range runAll(ctx, hc, cl.base(), jobs) {
		if refs.check(r); !r.ok() {
			t.Errorf("job %d: %s", r.job.n, r.err)
		}
		if r.latency() <= 0 || r.polls < 1 {
			t.Errorf("job %d: latency %v after %d polls", r.job.n, r.latency(), r.polls)
		}
	}
	snap, err := fetchSnapshot(ctx, hc, cl.base())
	if err != nil {
		t.Fatal(err)
	}
	if hits := snap.nums["cache.hits"]; hits != 20 {
		t.Errorf("cache.hits = %v after 20 repeats, want 20", hits)
	}
	if err := cl.stop(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestRunRefusesWithoutRepository checks the benchmark fails fast, with
// no result line, outside a repository.
func TestRunRefusesWithoutRepository(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out, errb strings.Builder
	if code := cliMain([]string{"--workload", wlFig6Hot, "--seconds", "1"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d with output %q outside a repository", code, out.String())
	}
}
