#!/bin/sh
# bench-json.sh — convert `go test -bench` output (the file named in $1,
# or stdin) to a JSON object keyed by benchmark name:
#
#   {"BenchmarkFsimEventDriven": {"ns_per_op": 18240768,
#                                 "bytes_per_op": 966593,
#                                 "allocs_per_op": 320}, ...}
#
# Missing -benchmem columns are reported as null. A "# host: ..."
# comment line becomes a "_host" entry, so a JSON record can state the
# core count its numbers were measured on. Multi-core matrix rows keep
# the go-test name suffixes (BenchmarkFoo/procs=2-4 etc.), so one file
# can hold a whole -cpu matrix without collisions. For example:
#
#   { echo "# host: $(nproc) vCPU"; go test -run '^$' -bench . -benchmem ./internal/fsim/; } |
#       scripts/bench-json.sh
set -eu

awk '
    /^# host: / {
        host = substr($0, 9)
        gsub(/"/, "", host)
    }
    /^Benchmark/ {
        name = $1
        ns = bytes = allocs = "null"
        for (i = 2; i < NF; i++) {
            if ($(i + 1) == "ns/op")    ns = $i
            if ($(i + 1) == "B/op")     bytes = $i
            if ($(i + 1) == "allocs/op") allocs = $i
        }
        # Last run of a repeated benchmark wins.
        row[name] = sprintf("  %c%s%c: {%cns_per_op%c: %s, %cbytes_per_op%c: %s, %callocs_per_op%c: %s}",
            34, name, 34, 34, 34, ns, 34, 34, bytes, 34, 34, allocs)
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
    END {
        print "{"
        if (host != "")
            printf "  %c_host%c: %c%s%c%s\n", 34, 34, 34, host, 34, (n ? "," : "")
        for (i = 1; i <= n; i++)
            printf "%s%s\n", row[order[i]], (i < n ? "," : "")
        print "}"
    }
' "$@"
