#!/bin/sh
# Tier-1 verification: build, vet, tests, and the race detector over every
# package. The -race pass is part of the baseline since the concurrent merge
# pipeline landed — new code must keep it green.
set -eux

cd "$(dirname "$0")/.."

go build ./...

# Every tracked Go file is gofmt-clean (tracked only, so the benchmark's
# .bench_build/ module cache is never scanned).
test -z "$(gofmt -l $(git ls-files '*.go'))"

# Line-count ratchet: non-test Go must not grow past what the last
# simplicity PR landed at (ROADMAP aim 2, net-negative LOC). A PR that
# removes code lowers the literal; nothing raises it silently: PR 24 (Join's
# translation cache, allocation-free array bc/hu probes, tpchbench
# -cpuprofile) raised it from 22528 by the 37 lines it added. The single
# front-coding reader (fcDict.walk, and one ForEach helper for the formats
# that walk by extract) lowered it from 22565 to 22461. The predicate
# operators (CodeSet bitsets, PrefixSet, ValueSet: +57 in colstore) and the
# OnPair sequential walk and pair-depth check (+30 in dict) raised it by 87.
# Dropping the scheduler's append backpressure and OnError hook lowered it
# from 22548. One figure command over one figure table, and one timing
# routine (model.Measure) for the cost table and the surveys, lowered it
# from 22370. Gather, one fused decode-and-lookup kernel per vector format
# that Join, Codes and every AppendRange run through, lowered it from 22211,
# net of the Re-Pair expansion bound that came with it: it replaced the
# per-format AppendRange loops, mainCodes, the per-row Get loops of fold's
# remap, Concat's flattening and the checkpoint code check, and the scan
# kernels' unreachable fallbacks. The column pool (ForEachColumn) and fold's
# single-sort union lowered it from 22207: they replaced the scheduler's own
# pool, the four union/remap helpers and tpch.LoadInto. Closing the format
# set (OnPair and LZ78 as Format constants in one static table, no runtime
# registration in dict or model) lowered it from 22202, net of rejecting
# NUL-bearing values at /v1/append. The WAL's per-segment directory fsync
# raised it from 22065 by its 11 lines, net of the 7 that one SWAR window
# kernel for every code width saved: it replaced the unpack-then-compare
# paths and the aligned-only kernels, and intcomp's scalar oracles moved to
# its tests. Partial folds re-packing the main vector (no concat vector kind,
# no concat kernel or wire-write case) and the scalar scans leaving
# colstore for a Get oracle in the tests lowered it from 22069, net of the
# durable directory creation in persist.Open. Deleting zone maps and the
# merge scheduler's Parallelism knob lowered it from 21873. The main part's
# per-value count table (CountEq answers with one lookup; intcomp.Counts
# builds it) raised it from 21711 by the 50 lines it added.
lines=$(find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' | xargs cat | wc -l)
if [ "$lines" -gt 21761 ]; then
    echo "FAIL: $lines non-test Go lines, ratchet is 21761"
    exit 1
fi
# The same ratchet on the TPC-H plans alone (ROADMAP, operator-layer item),
# and the import that the stats assembly's move to core removed. Deleting
# LoadInto for the pool call sites lowered it from 2073.
[ "$(find internal/tpch -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" -le 2068 ]
# And on the dictionary formats, which the single front-coding reader took
# from 2863 lines to 2750; the OnPair sequential walk (a pair memo) and its
# pair-depth check raised it by 30; the closed format table lowered it from
# 2780.
[ "$(find internal/dict -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" -le 2723 ]
# And on the models, which the closed format table (no size-model or
# default-cost registration) took from 917 lines.
[ "$(find internal/model -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" -le 830 ]
# And on the integer vectors, which dropping the concat kind (three kinds:
# packed, RLE, FOR; a legacy concat decodes flat) took from 998 lines;
# Counts, the count-table builder, raised it from 849 by 17.
[ "$(find internal/intcomp -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" -le 866 ]
# And on the column store, which deleting zone maps and sealed-segment value
# bounds (one kernel call per scan) took from 2360 lines; the lazily built
# count table behind CountEq raised it from 2205 by 33.
[ "$(find internal/colstore -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" -le 2238 ]
if go list -deps ./internal/service | grep -q internal/tpch; then # "! cmd" would not trip set -e
    echo "FAIL: internal/service depends on internal/tpch"
    exit 1
fi

go vet ./...
go test ./...
go test -race ./...

# The figure command's dispatch: one deterministic figure through the table
# (a few seconds).
go run ./cmd/figures -figure 9 -n 2000 >/dev/null

# Short fuzz smoke on the binary decoders: the unmarshal paths must reject
# arbitrary bytes without panicking before any of it is fed WAL/checkpoint
# payloads at recovery time.
go test -run '^$' -fuzz FuzzUnmarshalPacked -fuzztime 5s ./internal/intcomp/
go test -run '^$' -fuzz FuzzUnmarshal -fuzztime 5s ./internal/dict/
# The same for the persist decoders recovery feeds from disk: manifests
# (whose accepted bytes must also re-encode identically), part files and WAL
# segments.
go test -run '^$' -fuzz '^FuzzManifest$' -fuzztime 5s ./internal/persist/
go test -run '^$' -fuzz '^FuzzPart$' -fuzztime 5s ./internal/persist/
go test -run '^$' -fuzz '^FuzzWALRecord$' -fuzztime 5s ./internal/persist/

# Scan-kernel smoke: the batch predicate kernels must stay bit-identical to
# the scalar Get oracle across random vectors of every width, probes and
# subranges, and the packed window kernels to Get at every width 1..64 and
# every start in a window's reach.
go test -run '^$' -fuzz FuzzScanKernels -fuzztime 5s ./internal/intcomp/
go test -count=1 -run TestPackedKernelsEveryWidth ./internal/bits/
# The same for Gather (the Join/Codes kernel) against Get, with and without
# a translating table.
go test -run '^$' -fuzz FuzzGather -fuzztime 5s ./internal/intcomp/
# The legacy concat vector layout, which nothing writes any more: the frozen
# blob and store directory decode to their values, and fold's pinned results
# (every main-part producer, partial folds re-packing) stay bit-identical.
go test -count=1 -run 'TestLegacyConcatDecodes' ./internal/intcomp/
go test -count=1 -run 'TestGoldenStoreConcatRecovers' ./internal/persist/
go test -count=1 -run 'TestFoldMatchesParent' ./internal/colstore/
# And fold's single-sort union against the sort-merge-and-search reference.
go test -run '^$' -fuzz FuzzUnionRemap -fuzztime 5s ./internal/colstore/
# The /v1/append JSON body: no panic, 200 or 400, the accepted items' rows
# land aligned, and every accepted value counts right after an fc block
# merge (a NUL-bearing value once broke exactly that).
go test -run '^$' -fuzz FuzzAppendBody -fuzztime 5s ./internal/service/

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

# Join's translation cache: hits, every invalidation, and joins racing a
# merge daemon that republishes both sides, against the brute-force model.
go test -race -count=20 -run TestJoinTranslationCache ./internal/colstore/
# The count table's lazy build: readers on snapshots of one fresh version
# count together while a merge daemon republishes, against the Get oracle.
go test -race -count=20 -run TestCountTableConcurrent ./internal/colstore/

# Predicate oracle: CodeSet, PrefixSet and ValueSet against pred(Extract)
# and strings.HasPrefix on every format, with their locate/extract costs.
go test -race -count=1 -run TestCodeSetAndPrefixSet ./internal/colstore/

# Format-table completeness: every dictionary format must carry positive
# default costs and a nonzero size estimate (TestRegistryCompleteness), keep
# its table position and name (TestRegistryEnumeration) and its immutable
# wire ID (TestWireIDStability), and satisfy the cross-format differential
# oracle (TestAllFormatsAgree). These suites iterate the closed table, so
# no format can dodge coverage.
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
