#!/bin/sh
# Repository health check, the CI sweep. With no arguments it runs every
# leg in order; `sh scripts/check.sh LEG...` runs only the named ones.
# The Makefile's check/build/vet/test/race/chaos/fuzz targets call it.
#
#   build  go build ./...
#   vet    go vet ./...
#   test   the full test suite
#   race   the race detector over the concurrency-sensitive packages
#          (query service, cache + singleflight, transport, cluster), the
#          root short-mode service bench, the metrics stress test
#          (/metrics scraped while concurrent queries run), the streaming
#          plan goldens and differential harnesses against the naive
#          oracle, the living-dataset ingest suite, the out-of-core
#          suite and the adaptive planner; GOMAXPROCS=1 kernel runs
#   chaos  the fault-injection matrix (drop/delay/crash x IJ/GH), the
#          recovery building blocks and self-healing, under -race
#   fuzz   10s smokes: parser, chunk extractors, SVT2 wire codec,
#          catalog image loading
#   bench  kernel/codec microbench smoke, and vet + tests of the
#          sciviewbench module (its own go.mod, so `go build ./...` in
#          the root never compiles it; this leg catches a program API it
#          uses disappearing)
set -eu

cd "$(dirname "$0")/.."

leg_build() {
	echo "== go build ./..."
	go build ./...
}

leg_vet() {
	echo "== go vet ./..."
	go vet ./...
}

leg_test() {
	echo "== go test ./..."
	go test ./...
}

leg_race() {
	echo "== go test -race (service, cache, transport, cluster)"
	go test -race -count=1 ./internal/service ./internal/cache ./internal/transport ./internal/cluster

	echo "== go test -race -short (root service bench)"
	go test -race -short -count=1 -run TestServiceBenchShort .

	echo "== go test -race (streaming plan goldens vs the naive oracle, incl. chaos + views races)"
	go test -race -count=1 ./internal/plan
	go test -race -count=1 -run 'TestGolden|TestOracle|TestConcurrentView|TestExplain' ./internal/planner

	echo "== go test -race (parallel kernels + pipelined joiners, stressed)"
	go test -race -count=3 ./internal/hashjoin ./internal/ij ./internal/gh ./internal/tuple

	echo "== go test (GOMAXPROCS=1: parallel paths degrade to serial cleanly)"
	GOMAXPROCS=1 go test -count=1 ./internal/hashjoin ./internal/ij ./internal/gh

	echo "== go test -race (metrics registry + /metrics scraped during a concurrent bench run)"
	go test -race -count=1 ./internal/metrics
	go test -race -count=1 -run TestMetricsScrapeDuringServiceBench .

	echo "== go test -race (differential harness vs the oracle: IJ, GH, knobs, faulted leg; exact SUM/AVG)"
	go test -race -count=1 -run TestDifferential ./internal/planner
	go test -race -count=1 ./internal/dds

	echo "== go test -race (out-of-core: scratch manager, budget sweep, spill hygiene, degraded admission, chaos spill)"
	go test -race -count=1 ./internal/scratch
	go test -race -count=1 -run 'TestBudgetSweep|TestScratchReaped|TestExplainSpillAnnotations' ./internal/planner
	go test -race -count=1 -run 'TestDegradedAdmission|TestStrictRejectsOverBudget' ./internal/service
	go test -race -count=1 -run 'TestSpillUnderChaos' ./internal/chaos
	go test -race -count=1 -run 'TestJoinPairSpill' ./internal/hashjoin

	echo "== go test -race (wire codec: compressed vs row-major vs the oracle, incl. faulted leg)"
	go test -race -count=1 -run 'TestGoldenCorpusWireInvariant|TestDifferentialWire|TestWire' ./internal/planner ./internal/cluster ./internal/colenc

	echo "== go test -race (living datasets: ingest, snapshot pins, delta==full, insert-during-query)"
	go test -race -count=1 ./internal/ingest
	go test -race -count=3 -run TestConcurrentAppendDuringQuery ./internal/metadata
	go test -race -count=1 -run TestLivingDataset .

	echo "== go test -race (adaptive planner: calibration flip, cost-model default path, regret smoke)"
	go test -race -count=1 -run 'TestCalibrationMovesConstantsAndFlipsDecision' ./internal/planner
	go test -race -count=1 -run 'TestSubmitSQLCostModelDefault' ./internal/service
	go test -race -count=1 -run TestRegretSmoke .
}

leg_chaos() {
	echo "== go test -race (chaos matrix: fault/retry/breaker + drop/delay/crash x IJ/GH, spill under chaos)"
	go test -race -count=1 ./internal/chaos ./internal/fault ./internal/retry ./internal/breaker

	echo "== go test -race (self-healing: repair manager unit suite + crash-restart-converge)"
	go test -race -count=1 ./internal/repair
	go test -race -count=1 -run TestCrashRestartConverge ./internal/chaos
}

leg_fuzz() {
	echo "== fuzz smoke (parser must never panic, 10s)"
	go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/query

	echo "== fuzz smoke (chunk extractors over the seeded RLE/ColMajor/dict/delta corpus, 10s)"
	go test -run '^$' -fuzz FuzzExtractors -fuzztime 10s ./internal/chunk

	echo "== fuzz smoke (SVT2 wire codec round-trip over the seeded frame corpus, 10s)"
	go test -run '^$' -fuzz FuzzWireCodec -fuzztime 10s ./internal/colenc

	echo "== fuzz smoke (catalog image loading rejects hostile images, never panics, 10s)"
	go test -run '^$' -fuzz FuzzCatalogLoad -fuzztime 10s ./internal/metadata
}

leg_bench() {
	echo "== bench smoke (kernels + codec, 100 iterations)"
	go test -run '^$' -bench . -benchtime 100x ./internal/hashjoin ./internal/tuple

	echo "== sciviewbench module (vet + tests against this checkout)"
	GOWORK=off go -C sciviewbench vet ./...
	GOWORK=off go -C sciviewbench test ./...
}

legs=${*:-build vet test race chaos fuzz bench}
for leg in $legs; do
	case $leg in
	build | vet | test | race | chaos | fuzz | bench) "leg_$leg" ;;
	*)
		echo "check.sh: unknown leg '$leg' (want build vet test race chaos fuzz bench)" >&2
		exit 2
		;;
	esac
done
echo "OK"
