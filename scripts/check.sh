#!/bin/sh
# check.sh — the tier-1 gate: formatting, vet, build, and the full test
# suite under the race detector.
set -eu
cd "$(dirname "$0")/.."

# require_tests PATTERN PKG...: fail unless every |-separated
# alternative of a -run/-fuzz pattern names at least one test, fuzz
# target or benchmark in the packages. go test only prints "no tests to
# run" and passes when a pattern matches nothing, so without this a
# deleted or renamed test would silently empty a named stage.
require_tests() {
    pattern=$1
    shift
    names=$(go test -list "$pattern" "$@" | grep -Ev '^(ok|\?) ') || true
    for alt in $(printf '%s' "$pattern" | tr '|' ' '); do
        if ! printf '%s\n' "$names" | grep -Eq -- "$alt"; then
            echo "check.sh: -run/-fuzz alternative '$alt' matches no test in $*" >&2
            exit 1
        fi
    done
}

# named_test PATTERN ARGS...: go test -run PATTERN ARGS... after
# require_tests has checked PATTERN against the ./... package arguments.
named_test() {
    pattern=$1
    shift
    pkgs=
    for arg in "$@"; do
        case $arg in ./*) pkgs="$pkgs $arg" ;; esac
    done
    require_tests "$pattern" $pkgs
    go test -run "$pattern" "$@"
}

# fuzz_smoke TARGET PKG: a 5 s fuzz run of one named target.
fuzz_smoke() {
    require_tests "$1" "$2"
    go test -run='^$' -fuzz="$1" -fuzztime=5s "$2"
}

# summary CMD...: run a go test -v command, print only its RUN/PASS/FAIL
# lines, and keep its exit status (a pipe into grep would drop it).
summary() {
    out=$("$@") || { printf '%s\n' "$out"; return 1; }
    printf '%s\n' "$out" | grep -E '^(=== RUN|--- (PASS|FAIL|SKIP)|ok|FAIL)'
}

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go vet (benchmark module: it builds against internal APIs)"
# benchmarks/e2e is its own module calling resultcache.New, dispatch.New
# and service.Open; vetting it catches an internal API change that would
# break the benchmark's build.
(cd benchmarks/e2e && go vet .)

echo "== go test -race (concurrency-heavy packages, fail fast)"
go test -race -count=1 ./internal/fsim/... ./internal/service/... ./internal/failpoint/... ./cmd/servd/... ./internal/resultcache/... ./internal/httpmw/... ./internal/logger/... ./internal/metrics/... ./internal/retry/... ./internal/frame/...

echo "== go test -race (result cache: hit/miss byte-identity, corrupt-entry discard, single-flight)"
# The cache round-trip gate: a repeat submission is served byte-identical
# from memory and from disk, a corrupted entry file is discarded (never
# served), N concurrent identical submissions run ATPG exactly once, and
# serial, workers and backends submissions of one ATPG request share one
# entry.
named_test 'TestCachedRun|TestCacheServesRepeatedSubmission|TestCacheDiskTierSurvivesRestart|TestCorruptEntryDiscardedOnLoad|TestConcurrentIdenticalSubmissionsRunOnce|TestCacheHammer|TestATPGOneCacheEntryAcrossEngines' \
    -race -count=1 ./internal/resultcache/ ./internal/atpg/ ./internal/service/

echo "== go test -race -short (fault-sharded ATPG determinism + Theorem 1-4 metamorphic suite)"
# TestParallel* drive the speculator through its one entry point,
# RunContext with Options.Workers set, and require byte-identity with
# the serial run at 1/2/4/8 workers; TestTheorem* feed both engines'
# test sets to the Theorem 4 check. -short keeps the gate fast: 12
# theorem pairs and the 5-repeat determinism gauntlet. The full 50-pair
# suite runs race-free in the plain `go test ./...` tier-1 pass; drop
# -short here for a nightly run.
named_test 'TestParallel|TestTheorem' -race -short -count=1 ./internal/atpg/ ./internal/verify/

echo "== go test -race (dispatch fan-out: retry ladder, migration, degrade, byte-identity at 1/2/4 backends)"
# The distributed chaos gate: failpoint-driven {first-try success,
# retry-then-success, migrate-after-kill, all-backends-down degrade},
# each asserting byte-identity against serial atpg.Run, plus the HTTP
# worker protocol (torn heartbeat, poisoned response, stuck backend).
go test -race -count=1 ./internal/dispatch/ ./cmd/workerd/

echo "== dispatch kill-a-worker smoke (real processes: servd + 2 workerd, SIGKILL one mid-run)"
# Starts two workerd workers (one slowed via a failpoint sleep) and a
# servd fronting both, submits a distributed ATPG job, kills the slow
# worker dead mid-shard, and asserts the merged result is byte-identical
# to an in-process serial reference run.
smoketmp=$(mktemp -d)
trap 'rm -rf "$smoketmp"' EXIT
go build -o "$smoketmp/servd" ./cmd/servd
go build -o "$smoketmp/workerd" ./cmd/workerd
go run ./cmd/dispatchsmoke -servd "$smoketmp/servd" -workerd "$smoketmp/workerd"

echo "== go test -race (iofault chaos: ENOSPC/EIO/torn writes at journal, checkpoint, cache sites)"
# The degraded-mode gate: every write-path op of every durability site
# fails and the job must still complete byte-identical to a fault-free
# run while the site's degraded signal (journal.degraded,
# atpg.checkpoint.errors, cache.disk_errors) fires.
named_test 'TestDurabilityFaultsNeverFailJobs|TestJournalDegraded|TestDiskBreaker|TestInjectedFaults|TestPartialWrite|TestWriteAtomic' \
    -race -count=1 ./internal/service/ ./internal/resultcache/ ./internal/iofault/

echo "== go test -race (watchdog stall smoke: wedged checkpoint write -> requeue -> byte-identical)"
# A job wedged mid-run (blocked checkpoint write) must be detected by
# the stuck-progress watchdog, cancelled, requeued through the backoff
# ladder, and finish byte-identical on the retry; a job that stalls on
# every attempt must fail loudly at the attempt cap. Twenty shuffled
# repetitions catch an abandoned attempt outliving Close and leaking
# into the next test's failpoints.
named_test 'TestWatchdog' -race -count=20 -shuffle=on ./internal/service/

echo "== go test -race -short (checkpoint kill/resume chaos: crash anywhere, resume, byte-identical)"
# -short samples 3 kill points per snapshot set and workers {1,4}; the
# plain tier-1 pass (and a nightly run without -short) widens to up to
# 10 kill points and workers {1,2,4}. The CLI and facade cases check
# that a checkpoint path alone resumes from a usable file and reruns
# clean over an unusable or divergent one. The root package is written
# ./ so named_test hands it to require_tests.
named_test 'TestCheckpoint|TestRunCheckpointResume|TestRunResumeDiscardsGarbage|TestFacadeATPGWithCheckpoint' \
    -race -short -count=1 ./internal/atpg/ ./cmd/atpg/ ./

echo "== go test -race"
go test -race -short ./...

echo "== cost ledger (gate evaluations, backtracks, fsim work pinned to golden literals)"
# The machine-independent regression gate: TestCostLedger pins the ATPG
# dropping workload, the 16 Table II fault simulations and four Fig. 6
# flows to exact counters. Two GOMAXPROCS values check that the
# counters do not depend on the core count. Wall-clock regressions are
# judged only by benchmarks/e2e -compare over alternating pairs.
named_test 'TestCostLedger' -count=1 -cpu 1,2 ./internal/experiments/

echo "== alloc-regression gate (steady-state Simulate allocation-free, Machine.Step <= 1 alloc)"
# Deliberately WITHOUT -race: testing.AllocsPerRun is meaningless under
# the race detector, so these tests skip themselves there. The budgets
# live in internal/fsim/alloc_test.go (Simulate: 0 serial, O(workers)
# parallel; Machine.Step: 1, the returned output vector).
summary named_test 'TestSimulateSteadyStateAllocs|TestMachineStepAllocs|TestSimulateParallelSteadyStateAllocs' -count=1 -v ./internal/fsim/

echo "== alloc-regression gate (log ring: <= 1 alloc per record, 0 with a prebuilt string)"
# Same -race caveat; the budget lives in internal/logger/logger_test.go.
summary named_test 'TestLogSteadyStateAllocs' -count=1 -v ./internal/logger/

echo "== coverage floor (httpmw + logger must stay >= 90% covered)"
# The middleware and log ring sit on every request path of both
# daemons; the hardening pass that introduced them came with a full
# table-driven suite, and this gate keeps later edits honest.
go test -count=1 -cover ./internal/httpmw/ ./internal/logger/ | awk '
    /coverage:/ {
        pct = 0
        for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%.*/, "", $i); pct = $i }
        printf "%-24s %s%%\n", $2, pct
        if (pct + 0 < 90) { bad = 1 }
    }
    END { if (bad) { print "coverage below 90% floor" > "/dev/stderr"; exit 1 } }'

echo "== coverage floor (iofault, retry, frame must stay >= 90% covered)"
# The IO fault seam, the breaker/backoff primitives and the binary frame
# guard every durability and degradation path; their behavior is
# exactly what the degraded-mode guarantees rest on.
go test -count=1 -cover ./internal/iofault/ ./internal/retry/ ./internal/frame/ | awk '
    /coverage:/ {
        pct = 0
        for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%.*/, "", $i); pct = $i }
        printf "%-24s %s%%\n", $2, pct
        if (pct + 0 < 90) { bad = 1 }
    }
    END { if (bad) { print "coverage below 90% floor" > "/dev/stderr"; exit 1 } }'

echo "== e2e smoke (servd over real HTTP: fill the cache with fig6_hot, then 20 verified hits)"
# The benchmark module's suite, run without -short because TestHotSmoke
# skips itself under -short: it builds servd, fills the cache with the
# four fig6_hot requests and checks 20 repeat submissions against them,
# the same path benchmarks/e2e/run.sh measures.
(cd benchmarks/e2e && go test -count=1 .)

echo "== servd pprof surface (profiler mux serves index + heap off the API listener)"
named_test 'TestPprofMux' -count=1 ./cmd/servd/

echo "== fuzz smoke (journal replay must survive arbitrary crash residue)"
fuzz_smoke FuzzJournalReplay ./internal/service/

echo "== fuzz smoke (.bench parser: accepted inputs must round-trip)"
fuzz_smoke FuzzParseBench ./internal/netlist/

echo "== fuzz smoke (checkpoint decoder: arbitrary bytes -> clean error or canonical round-trip)"
fuzz_smoke FuzzCheckpointRestore ./internal/atpg/

echo "== fuzz smoke (cache entry decoder: arbitrary bytes -> typed error or canonical round-trip)"
fuzz_smoke FuzzCacheEntryDecode ./internal/resultcache/

echo "== fuzz smoke (shard wire decoder: hostile shard JSON -> clean 400 or validated round-trip)"
fuzz_smoke FuzzShardWireDecode ./internal/dispatch/

echo "check.sh: all green"
