package retest

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const toy = `
INPUT(a)
INPUT(b)
OUTPUT(z)
g = AND(a, q)
q = DFF(g)
z = OR(g, b)
`

func TestFacadeWorkflow(t *testing.T) {
	c, err := ParseBench("toy", strings.NewReader(toy))
	if err != nil {
		t.Fatal(err)
	}
	pair, before, after, err := MinPeriodPair(c)
	if err != nil {
		t.Fatal(err)
	}
	if before < after {
		t.Fatalf("periods %d -> %d", before, after)
	}
	opt := DefaultATPGOptions()
	opt.RandomCount = 4
	opt.RandomLength = 16
	faults := CollapsedFaults(pair.Original)
	if len(faults) == 0 {
		t.Fatal("no faults")
	}
	res := ATPG(pair.Original, faults, opt)
	rep, err := pair.CheckPreservation(res.TestSet, FillZeros, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %d", len(rep.Violations))
	}
	derived := pair.DeriveTestSet(res.TestSet, FillRandom, 1)
	fr := FaultSimulate(pair.Retimed, CollapsedFaults(pair.Retimed), derived)
	if fr.Coverage() < 0 {
		t.Fatal("nonsense coverage")
	}

	// The fault-sharded engine must reproduce the serial test set and
	// surface its speculation stats through the facade types.
	popt := opt
	popt.Workers = 4
	pres, _ := ATPGContext(context.Background(), pair.Original, faults, popt)
	if len(pres.TestSet) != len(res.TestSet) {
		t.Fatalf("parallel test set %d vectors, serial %d", len(pres.TestSet), len(res.TestSet))
	}
	for i := range pres.TestSet {
		for j := range pres.TestSet[i] {
			if pres.TestSet[i][j] != res.TestSet[i][j] {
				t.Fatalf("parallel test set diverges at vector %d", i)
			}
		}
	}
	var ps *ATPGParallelStats = pres.Parallel
	if ps == nil || ps.Workers != 4 {
		t.Fatalf("parallel stats missing: %+v", ps)
	}
}

func TestFacadeBenchIO(t *testing.T) {
	c, err := ParseBench("toy", strings.NewReader(toy))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DFF(g)") {
		t.Fatalf("bench output:\n%s", sb.String())
	}
	if got := len(ParseSeq("01,10")); got != 2 {
		t.Fatalf("ParseSeq = %d", got)
	}
}

func TestFacadeFSMSynthesis(t *testing.T) {
	f, err := ParseKISS2("tiny", strings.NewReader(`
.i 1
.o 1
.r a
0 a a 0
1 a b 1
- b a 0
`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := SynthesizeFSM(f, "jo", "sr", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 2 { // rst + 1
		t.Fatalf("inputs = %d", len(c.Inputs))
	}
}

func TestFacadeFig6(t *testing.T) {
	c, err := ParseBench("toy", strings.NewReader(toy))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultATPGOptions()
	opt.RandomCount = 4
	opt.RandomLength = 16
	out, err := RetimeForTestability(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.ImplCoverage() < 0 || out.ImplCoverage() > 100 {
		t.Fatal("bad coverage")
	}
}

// TestFacadeATPGWithCheckpoint runs the checkpointing entry point
// twice against the same file: the second call resumes from the
// first's completed decision log and must reproduce its test set.
func TestFacadeATPGWithCheckpoint(t *testing.T) {
	c, err := ParseBench("toy", strings.NewReader(toy))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultATPGOptions()
	opt.RandomPhase = false // make every fault a checkpointed boundary
	faults := CollapsedFaults(c)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	first, err := ATPGWithCheckpoint(context.Background(), c, faults, opt, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadATPGCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Decided) == 0 {
		t.Fatal("checkpoint recorded no decisions")
	}
	again, err := ATPGWithCheckpoint(context.Background(), c, faults, opt, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.TestSet, first.TestSet) {
		t.Fatal("resumed test set differs from the original run")
	}
	if !reflect.DeepEqual(again.Status, first.Status) {
		t.Fatal("resumed fault statuses differ from the original run")
	}

	// A file that passes its identity hashes but whose decision log
	// diverges during replay is discarded and the run redone clean.
	if len(ck.Decided) < 2 {
		t.Fatalf("checkpoint has %d decisions, need 2 to swap", len(ck.Decided))
	}
	ck.Decided[0], ck.Decided[1] = ck.Decided[1], ck.Decided[0]
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	clean, err := ATPGWithCheckpoint(context.Background(), c, faults, opt, path, 1)
	if err != nil {
		t.Fatalf("divergent checkpoint failed the run: %v", err)
	}
	if !reflect.DeepEqual(clean.TestSet, first.TestSet) {
		t.Fatal("post-discard test set differs from the original run")
	}
}

// TestFacadeATPGCached exercises the result-cache entry points: a cold
// run computes and stores, the warm run is served from the cache with
// identical tests and statuses, and the key is stable and worker-count
// independent.
func TestFacadeATPGCached(t *testing.T) {
	c, err := ParseBench("toy", strings.NewReader(toy))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultATPGOptions()
	faults := CollapsedFaults(c)
	cache := NewResultCache(ResultCacheConfig{Dir: filepath.Join(t.TempDir(), "cache")})

	cold, src, err := ATPGCached(context.Background(), cache, c, faults, opt)
	if err != nil {
		t.Fatal(err)
	}
	if src.String() != "miss" {
		t.Fatalf("cold run source %v, want miss", src)
	}
	warm, src, err := ATPGCached(context.Background(), cache, c, faults, opt)
	if err != nil {
		t.Fatal(err)
	}
	if src.String() != "hit" {
		t.Fatalf("warm run source %v, want hit", src)
	}
	if !reflect.DeepEqual(warm.TestSet, cold.TestSet) {
		t.Fatal("cached test set differs from the cold run")
	}
	if !reflect.DeepEqual(warm.Status, cold.Status) {
		t.Fatal("cached fault statuses differ from the cold run")
	}

	key := ATPGCacheKey(c, faults, opt)
	workers := opt
	workers.Workers = 8
	if ATPGCacheKey(c, faults, workers) != key {
		t.Fatal("worker count moved the cache key (it is result-neutral)")
	}
	seeded := opt
	seeded.RandomSeed++
	if ATPGCacheKey(c, faults, seeded) == key {
		t.Fatal("seed change did not move the cache key")
	}
}
