GO ?= go

.PHONY: all build test race vet bench bench-all bench-recovery bench-formats bench-scan bench-ckpt check torture

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Read-path gate: versioned lock-free reads vs the RWMutex baseline, plus
# merge throughput; writes BENCH_read_path.json.
# Partial-merge gate: partial-fold policy vs always-full merges on a hot
# append stream; writes BENCH_partial_merge.json.
# Scan-kernel gate: packed-domain predicate kernels and zone-map pruning vs
# the scalar per-row path; writes BENCH_scan_kernels.json.
# Incremental-checkpoint gate: bytes written per checkpoint with one dirty
# column vs a full rewrite; writes BENCH_incremental_ckpt.json.
bench:
	sh scripts/bench_read_path.sh
	sh scripts/bench_partial_merge.sh
	sh scripts/bench_scan_kernels.sh
	sh scripts/bench_incremental_ckpt.sh

# Scan-kernel gate alone (it is also part of `make bench`).
bench-scan:
	sh scripts/bench_scan_kernels.sh

# Incremental-checkpoint gate alone (it is also part of `make bench`).
bench-ckpt:
	sh scripts/bench_incremental_ckpt.sh

# Durability gate: WAL append overhead vs in-memory, plus crash-recovery
# throughput for the replay-heavy and checkpoint-heavy extremes; writes
# BENCH_recovery.json.
bench-recovery:
	sh scripts/bench_recovery.sh

# Extension-format gate: onpair and lz78 vs the strongest built-in
# compressors on synthetic and TPC-H corpora; writes BENCH_formats.json.
bench-formats:
	sh scripts/bench_formats.sh

# Every figure and ablation benchmark, one iteration each.
bench-all:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Tier-1 verification plus the fuzz smoke, torture smoke, and
# registry-completeness gates.
check:
	sh scripts/check.sh

# Long torture run under the race detector. On failure the output names the
# seed; `make torture SEED=<n>` replays that exact run, and adding the seed
# to internal/torture/testdata/seeds.txt pins it as a regression. STEPS
# overrides the per-seed step count.
SEED ?= 0
STEPS ?= 0
torture:
	$(GO) test -race -count=1 -v -run 'TestTortureLong' ./internal/torture/ \
		-torture.long -torture.seed=$(SEED) -torture.steps=$(STEPS)
