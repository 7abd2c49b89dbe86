GO ?= go

.PHONY: all build test race vet bench bench-all check torture

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The end-to-end benchmark: all four workloads, untraced and traced, with
# the per-layer budget (bench/README.md); writes bench/results/set-*.json.
bench:
	$(GO) run ./bench -all -seed 1

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
