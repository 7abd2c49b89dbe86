#!/bin/sh
# Tier-1 verification: build, vet, tests, and the race detector over every
# package. The -race pass is part of the baseline since the concurrent merge
# pipeline landed — new code must keep it green.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test ./...
go test -race ./...

# Short fuzz smoke on the binary decoders: the unmarshal paths must reject
# arbitrary bytes without panicking before any of it is fed WAL/checkpoint
# payloads at recovery time.
go test -run '^$' -fuzz FuzzUnmarshalPacked -fuzztime 5s ./internal/intcomp/
go test -run '^$' -fuzz FuzzUnmarshal -fuzztime 5s ./internal/dict/

# Scan-kernel smoke: the batch predicate kernels must stay bit-identical to
# the scalar Get oracle across random vectors, probes and subranges.
go test -run '^$' -fuzz FuzzScanKernels -fuzztime 5s ./internal/intcomp/

# Scan-kernel floor: if the benchmark gate has been run, hold its headline
# numbers — equality kernel >= 4x scalar, selective probes actually skipping
# zones. (make bench regenerates BENCH_scan_kernels.json.)
if [ -f BENCH_scan_kernels.json ]; then
    awk -F': ' '
    /"speedup_eq":/ { gsub(/[, ]/, "", $2); if ($2 + 0 < 4.0) { print "FAIL: scan kernel speedup floor"; exit 1 } }
    /"zones_skipped_per_op"/ { gsub(/[, ]/, "", $2); if ($2 + 0 <= 0) { print "FAIL: zone pruning floor"; exit 1 } }
    ' BENCH_scan_kernels.json
fi

# Incremental-checkpoint floor: with one of sixteen columns dirty, a
# checkpoint must write at least 4x fewer bytes than the full rewrite.
# (make bench regenerates BENCH_incremental_ckpt.json.)
if [ -f BENCH_incremental_ckpt.json ]; then
    awk -F': ' '
    /"bytes_reduction":/ { gsub(/[, ]/, "", $2); if ($2 + 0 < 4.0) { print "FAIL: incremental checkpoint byte-reduction floor"; exit 1 } }
    ' BENCH_incremental_ckpt.json
fi

# Torture smoke: the pinned seeds in internal/torture/testdata/seeds.txt
# replayed deterministically under the race detector (~10s). Every seed
# drives random append/merge/scan/checkpoint/crash/fault interleavings and
# holds all six differential oracles after every step. A failure prints
# the seed; `make torture SEED=<n>` replays it exactly.
go test -race -count=1 -run 'TestTortureShort' ./internal/torture/

# Query-layer flake guard: TPC-H plans reading a column under two dictionary
# versions made this test panic every second run until every plan moved
# onto one colstore.View per query; fifty race-detector runs keep it from
# coming back unnoticed.
go test -race -count=50 -run 'TestMergeDaemonOnRefreshStream' ./internal/tpch/

# Registry completeness: every registered dictionary format must carry a
# size model and a default cost-table entry (TestRegistryCompleteness), keep
# its immutable wire ID (TestWireIDStability), and satisfy the cross-format
# differential oracle (TestAllFormatsAgree). A format cannot register at all
# without a serializer — RegisterFormat panics — and these suites iterate
# the registry, so a new format cannot dodge coverage.
go test -count=1 -run 'TestRegistryCompleteness' ./internal/model/
go test -count=1 -run 'TestWireIDStability|TestRegistryEnumeration|TestAllFormatsAgree' ./internal/dict/

# Selection stays bit-identical: every predicted size against the golden
# table, the Re-Pair rule/sequence digests, the one-run-serves-both-widths
# prefix property against the reference trainer, and the serialized bytes of
# the formats whose build trains a grammar, gram table or pair table
# (docs/oracles/model.md). The goldens predate the shared probes and flat
# trainers; a performance change must pass them unmodified.
go test -count=1 -run 'TestEstimatesGolden' ./internal/model/
go test -count=1 -run 'TestRulesGolden|TestRepair12IsPrefixOf16' ./internal/repair/
go test -count=1 -run 'TestBuildGolden' ./internal/dict/
go test -run '^$' -fuzz FuzzRepairPrefix -fuzztime 5s ./internal/repair/
