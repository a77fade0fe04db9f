package main

import (
	"fmt"
	"math/rand"

	"sciview"
	"sciview/internal/service"
)

// workload is one named traffic mix: a dataset shape, the emulated cluster
// it runs on, the service configuration, and the statements its clients
// submit. Everything a run measures is derived from these fields and the
// seed.
type workload struct {
	name string
	// grid is the full dataset extent; steps of it (along Z) are withheld
	// as append batches when steps > 0.
	grid, left, right sciview.Dims
	steps             int
	cluster           sciview.ClusterSpec
	svc               service.Config
	// clients is the number of closed-loop reader goroutines.
	clients int
	// corpus draws the workload's statements from the seed; each client
	// cycles through its own seeded permutation of them.
	corpus func(rng *rand.Rand) []stmt
	// pinned adds a raw join pinned to the base dataset version to every
	// reader's rotation (snapshot-isolation audit), twice, so the rotation
	// stays odd.
	pinned bool
}

// stmt is one SQL statement of a corpus plus what the benchmark needs to
// check and attribute it.
type stmt struct {
	sql string
	// box is the coordinate range the statement selects (empty = all), the
	// region the catalog lookup probe resolves.
	box []span
	// limit > 0 marks a LIMIT without a total ORDER BY: any limit rows of
	// the unlimited result are a correct answer when GH produced them.
	limit int
	// rows gives the result's row count on a grid, which the dataset's
	// geometry fixes independently of the program; count marks a
	// COUNT(*) of the whole view, whose value is the grid's cell count.
	rows  func(g sciview.Dims) int
	count bool
}

func cells(g sciview.Dims) int { return g.X * g.Y * g.Z }

func fixed(n int) func(sciview.Dims) int { return func(sciview.Dims) int { return n } }

// span is a closed coordinate interval of one attribute.
type span struct {
	attr   string
	lo, hi float64
}

const viewDDL = "CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"

// Every corpus has an odd number of statements of distinct cost: with
// each client cycling through all of them, the median latency then falls
// inside the middle statement's distribution instead of on the jump
// between two statements, where host noise would flip it from one side
// to the other.

// warmCorpus is the interactive SQL mix: COUNT, a chunk-aligned range
// filter, a projection, GROUP BY with ORDER BY, MIN/MAX, an early-exit
// LIMIT and a sorted top-k. The seed moves the selected ranges and the
// grouping attribute and aggregate, never the amount of work: filters stay
// aligned to the 8-cell partitions.
func warmCorpus(g sciview.Dims) func(rng *rand.Rand) []stmt {
	return func(rng *rand.Rand) []stmt {
		x0 := 8 * rng.Intn(g.X/8)
		z := rng.Intn(8)
		grp := []string{"x", "y"}[rng.Intn(2)]
		agg := []string{"AVG(wp)", "SUM(oilp)"}[rng.Intn(2)]
		return []stmt{
			{sql: "SELECT COUNT(*) FROM V1", rows: fixed(1), count: true},
			{
				sql:  fmt.Sprintf("SELECT * FROM V1 WHERE x BETWEEN %d AND %d", x0, x0+7),
				box:  []span{{"x", float64(x0), float64(x0 + 7)}},
				rows: func(g sciview.Dims) int { return 8 * g.Y * g.Z },
			},
			{
				sql:  fmt.Sprintf("SELECT wp, oilp FROM V1 WHERE z = %d", z),
				box:  []span{{"z", float64(z), float64(z)}},
				rows: func(g sciview.Dims) int { return g.X * g.Y },
			},
			{
				sql:  fmt.Sprintf("SELECT %s, COUNT(*), MIN(wp), MAX(wp), %s FROM V1 GROUP BY %s ORDER BY %s", grp, agg, grp, grp),
				rows: fixed(g.X), // grp is x or y, and the grid is square in X and Y
			},
			{sql: "SELECT MIN(wp), MAX(oilp) FROM V1", rows: fixed(1)},
			{sql: "SELECT * FROM V1 LIMIT 64", limit: 64, rows: fixed(64)},
			{
				sql:  fmt.Sprintf("SELECT * FROM V1 ORDER BY %s DESC, z, %s LIMIT 16", grp, map[string]string{"x": "y", "y": "x"}[grp]),
				rows: fixed(16),
			},
		}
	}
}

// coldCorpus is the scan mix over the large dataset: full-view and
// half-grid statements whose combined fetches exceed the cache.
func coldCorpus(g sciview.Dims) func(rng *rand.Rand) []stmt {
	return func(rng *rand.Rand) []stmt {
		half := g.X / 2
		x0 := half * rng.Intn(2)
		x1 := half - x0
		y0 := half * rng.Intn(2)
		return []stmt{
			{sql: "SELECT COUNT(*) FROM V1", rows: fixed(1), count: true},
			{
				sql:  fmt.Sprintf("SELECT * FROM V1 WHERE x BETWEEN %d AND %d", x0, x0+half-1),
				box:  []span{{"x", float64(x0), float64(x0 + half - 1)}},
				rows: func(g sciview.Dims) int { return half * g.Y * g.Z },
			},
			{sql: "SELECT x, MAX(wp), MIN(oilp) FROM V1 GROUP BY x ORDER BY x", rows: fixed(g.X)},
			{
				sql:  fmt.Sprintf("SELECT oilp, wp FROM V1 WHERE y BETWEEN %d AND %d", y0, y0+half-1),
				box:  []span{{"y", float64(y0), float64(y0 + half - 1)}},
				rows: func(g sciview.Dims) int { return g.X * half * g.Z },
			},
			{
				sql:  fmt.Sprintf("SELECT z, COUNT(*), MAX(oilp) FROM V1 WHERE x BETWEEN %d AND %d GROUP BY z ORDER BY z", x1, x1+half-1),
				box:  []span{{"x", float64(x1), float64(x1 + half - 1)}},
				rows: func(g sciview.Dims) int { return g.Z },
			},
		}
	}
}

var warmGrid = sciview.Dims{X: 32, Y: 32, Z: 16}

// workloads lists the benchmark's traffic mixes by name.
var workloads = map[string]*workload{
	"sql-warm": {
		name: "sql-warm",
		grid: warmGrid, left: sciview.Dims{X: 8, Y: 8, Z: 8}, right: sciview.Dims{X: 8, Y: 8, Z: 8},
		cluster: sciview.ClusterSpec{StorageNodes: 2, ComputeNodes: 2},
		clients: 2,
		corpus:  warmCorpus(warmGrid),
	},
	"scan-cold": {
		name: "scan-cold",
		grid: sciview.Dims{X: 64, Y: 64, Z: 16}, left: sciview.Dims{X: 8, Y: 8, Z: 8}, right: sciview.Dims{X: 16, Y: 4, Z: 8},
		cluster: sciview.ClusterSpec{
			StorageNodes: 2, ComputeNodes: 2,
			Wire: "colenc", NetBw: 8 << 20, CacheBytes: 256 << 10,
		},
		// The cost model picks GH in this regime, and GH bypasses the
		// sub-table cache this workload exists to stress.
		svc:     service.Config{Force: "ij"},
		clients: 1,
		corpus:  coldCorpus(sciview.Dims{X: 64, Y: 64, Z: 16}),
	},
	"gh-spill": {
		name: "gh-spill",
		grid: warmGrid, left: sciview.Dims{X: 8, Y: 8, Z: 8}, right: sciview.Dims{X: 8, Y: 8, Z: 8},
		cluster: sciview.ClusterSpec{StorageNodes: 2, ComputeNodes: 2},
		svc:     service.Config{Force: "gh", MemoryBudget: 16 << 10},
		clients: 1,
		corpus:  warmCorpus(warmGrid),
	},
	"ingest-live": {
		name: "ingest-live",
		// A 16-cell base plus eight withheld 4-cell time steps.
		grid: sciview.Dims{X: 32, Y: 32, Z: 48}, left: sciview.Dims{X: 8, Y: 8, Z: 4}, right: sciview.Dims{X: 8, Y: 8, Z: 4},
		steps:   8,
		cluster: sciview.ClusterSpec{StorageNodes: 2, ComputeNodes: 2},
		clients: 1,
		corpus:  warmCorpus(warmGrid),
		pinned:  true,
	},
}

// workloadOrder is the order workloads are listed in reports.
var workloadOrder = []string{"sql-warm", "scan-cold", "gh-spill", "ingest-live"}
