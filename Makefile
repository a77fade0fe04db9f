.PHONY: all build vet test race chaos fuzz check bench benchfig clean

all: check

# Every CI leg lives in scripts/check.sh; these targets run one leg each
# (`check` runs them all, plus the bench smoke and the sciviewbench
# module's vet and tests).
build vet test race chaos fuzz:
	sh scripts/check.sh $@

check:
	sh scripts/check.sh

# Kernel/codec/IJ-workload microbenchmarks with -benchmem, parsed into
# BENCH_pr3.json (map-vs-flat and prefetch-off-vs-on ratios included),
# the streaming LIMIT early-exit leg (BENCH_pr4.json), and the metrics
# overhead guard (BENCH_pr5.json: instrumented vs no-op registry on the
# IJ workload; the overhead fraction must stay ≤ 0.03).
bench:
	sh scripts/bench.sh

# The paper-figure reproduction benches (the old `make bench`).
benchfig:
	go test -bench=Fig -benchtime=1x ./...

clean:
	go clean ./...
