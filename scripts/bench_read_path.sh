#!/bin/sh
# Read-path benchmark gate: runs BenchmarkSnapshotScan (lock-free column /
# pinned snapshot / RWMutex baseline; value reads and scan inner-loop code
# reads, serial and parallel) plus BenchmarkParallelMerge (background-merge
# throughput context), then writes BENCH_read_path.json at the repo root.
# The headline number is speedup_code_vs_rwmutex — the versioned read path
# must be >= 1.5x the lock-per-call baseline on the scan inner-loop op.
set -eu

cd "$(dirname "$0")/.."

out=BENCH_read_path.txt
go test -run '^$' -bench 'BenchmarkSnapshotScan|BenchmarkParallelMerge' \
    -benchtime=2s -count=1 . | tee "$out"

awk '
/^Benchmark(SnapshotScan|ParallelMerge)/ {
    name = $1
    sub(/^BenchmarkSnapshotScan\//, "scan/", name)
    sub(/^BenchmarkParallelMerge\//, "merge/", name)
    sub(/-[0-9]+$/, "", name)
    nsop[name] = $3
    order[n++] = name
}
END {
    printf "{\n"
    printf "  \"benchmark\": \"read_path\",\n"
    printf "  \"ns_per_op\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"%s\": %s%s\n", order[i], nsop[order[i]], (i < n-1 ? "," : "")
    }
    printf "  },\n"
    printf "  \"speedup_code_vs_rwmutex\": %.3f,\n", \
        nsop["scan/code/rwmutex/serial"] / nsop["scan/code/snapshot/serial"]
    printf "  \"speedup_code_parallel_vs_rwmutex\": %.3f,\n", \
        nsop["scan/code/rwmutex/parallel"] / nsop["scan/code/snapshot/parallel"]
    printf "  \"speedup_value_vs_rwmutex\": %.3f,\n", \
        nsop["scan/value/rwmutex/serial"] / nsop["scan/value/lockfree-column/serial"]
    printf "  \"snapshot_speedup_value_vs_rwmutex\": %.3f\n", \
        nsop["scan/value/rwmutex/parallel"] / nsop["scan/value/snapshot/parallel"]
    printf "}\n"
}' "$out" > BENCH_read_path.json
rm -f "$out"

cat BENCH_read_path.json

# Gate: the lock-free read path must beat the RWMutex baseline by >= 1.5x
# on the scan inner-loop (code read) op.
awk -F': ' '/"speedup_code_vs_rwmutex"/ {
    gsub(/[,\n ]/, "", $2)
    if ($2 + 0 < 1.5) {
        printf "FAIL: code-read speedup %.3f < 1.5x over RWMutex baseline\n", $2
        exit 1
    }
    printf "OK: code-read speedup %.3f >= 1.5x over RWMutex baseline\n", $2
}' BENCH_read_path.json
