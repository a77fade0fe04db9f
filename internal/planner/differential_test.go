package planner

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/fault"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// Property-based differential harness: a seeded generator produces random
// SELECTs over randomized oil-reservoir datasets, and each query executes
// along several legs that must agree —
//
//   - every leg against the naive oracle, under both engines;
//   - IJ with random prefetch/parallelism knobs vs IJ with the defaults,
//     row for row;
//   - IJ vs GH byte-exact for aggregates, SUM/AVG included (exact sums
//     make them independent of row arrival order);
//   - a fault-injected leg (TestDifferentialUnderFaults) where fresh
//     op-counted injectors replay identical fault schedules.

// genDiffWhere returns a random conjunction of range predicates over the
// coordinate axes (possibly empty). Bounds stay inside the grid, so no
// generated query has an empty result.
func genDiffWhere(r *rand.Rand, dims [3]int) string {
	axes := []string{"x", "y", "z"}
	var preds []string
	for i, a := range axes {
		switch r.Intn(4) {
		case 0:
			lo := r.Intn(dims[i])
			hi := lo + r.Intn(dims[i]-lo)
			preds = append(preds, fmt.Sprintf("%s BETWEEN %d AND %d", a, lo, hi))
		case 1:
			preds = append(preds, fmt.Sprintf("%s < %d", a, 1+r.Intn(dims[i])))
		}
	}
	if len(preds) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(preds, " AND ")
}

// diffAggs are the aggregate items the generator draws from.
var diffAggs = []string{"COUNT(*)", "MIN(wp)", "MAX(oilp)", "SUM(wp)", "AVG(oilp)", "SUM(oilp)", "AVG(wp)"}

// genDiffQuery returns one random SELECT over the join view V1 and
// whether it aggregates.
func genDiffQuery(r *rand.Rand, dims [3]int) (string, bool) {
	where := genDiffWhere(r, dims)
	if r.Intn(3) == 0 {
		// Aggregate leg: grouping by one coordinate with a matching ORDER
		// BY; HAVING filters on a count, sum or average.
		gb := []string{"x", "y", "z"}[r.Intn(3)]
		var items []string
		for _, i := range r.Perm(len(diffAggs))[:1+r.Intn(3)] {
			items = append(items, diffAggs[i])
		}
		sql := fmt.Sprintf("SELECT %s, %s FROM V1%s GROUP BY %s", gb, strings.Join(items, ", "), where, gb)
		switch r.Intn(4) {
		case 0:
			sql += fmt.Sprintf(" HAVING COUNT(*) >= %d", 1+r.Intn(4))
		case 1:
			sql += fmt.Sprintf(" HAVING SUM(oilp) > %g", float64(r.Intn(20)))
		case 2:
			sql += fmt.Sprintf(" HAVING AVG(wp) <= %g", 0.3+0.4*r.Float64())
		}
		return sql + " ORDER BY " + gb, true
	}
	proj := [...]string{"*", "x, y, z, wp", "x, y, z, oilp, wp", "x, y, z"}[r.Intn(4)]
	sql := fmt.Sprintf("SELECT %s FROM V1%s", proj, where)
	switch r.Intn(3) {
	case 0:
		// (x, y, z) identifies a join row, so this ORDER BY is total.
		sql += " ORDER BY x, y, z"
		if r.Intn(2) == 0 {
			sql += fmt.Sprintf(" LIMIT %d", r.Intn(40))
		}
	case 1:
		// No total order: the oracle checks a sub-multiset of this size.
		sql += fmt.Sprintf(" LIMIT %d", r.Intn(40))
	}
	return sql, false
}

// diffConfigs are the dataset shapes the generator draws from; seeds and
// cluster sizes are randomized on top.
var diffConfigs = []oilres.Config{
	{Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4)},
	{Grid: partition.D(6, 6, 6), LeftPart: partition.D(3, 2, 3), RightPart: partition.D(2, 3, 2)},
	{Grid: partition.D(8, 4, 4), LeftPart: partition.D(2, 2, 2), RightPart: partition.D(4, 2, 1)},
}

func genDiffDataset(t *testing.T, r *rand.Rand) (*oilres.Dataset, [3]int) {
	t.Helper()
	cfg := diffConfigs[r.Intn(len(diffConfigs))]
	cfg.StorageNodes = 2 + r.Intn(2)
	cfg.Seed = 1 + r.Int63n(1<<30)
	ds, err := oilres.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, [3]int{cfg.Grid.X, cfg.Grid.Y, cfg.Grid.Z}
}

// runDiffLeg executes sql through a lowered plan with the given engine
// request knobs.
func runDiffLeg(t *testing.T, ex *Executor, sql string, prefetch, parallelism int) *Output {
	t.Helper()
	l, err := ex.Lower(sql)
	if err != nil {
		t.Fatalf("%s [lower]: %v", sql, err)
	}
	if l.Join != nil {
		l.Join.Req.Prefetch = prefetch
		l.Join.Req.Parallelism = parallelism
	}
	out, err := ex.ExecLowered(context.Background(), l)
	if err != nil {
		t.Fatalf("%s [prefetch=%d parallel=%d]: %v", sql, prefetch, parallelism, err)
	}
	return out
}

// TestDifferentialRandomQueries is the property harness' fault-free body:
// per seed, one randomized dataset and a batch of generated queries, each
// run under both engines against the oracle, plus the knob and
// cross-engine legs.
func TestDifferentialRandomQueries(t *testing.T) {
	const queriesPerSeed = 8
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed * 9176))
			ds, dims := genDiffDataset(t, r)
			o := newOracle(t, ds, goldenViews...)
			nj := 1 + r.Intn(3)
			exIJ := datasetExecutor(t, ds, nj, "ij", cluster.Config{})
			exGH := datasetExecutor(t, ds, nj, "gh", cluster.Config{})
			for q := 0; q < queriesPerSeed; q++ {
				sql, agg := genDiffQuery(r, dims)
				strIJ := runOracle(t, o, exIJ, sql, "ij")
				strGH := runOracle(t, o, exGH, sql, "gh")

				// Scheduling knobs change timing, never bytes.
				pf, par := r.Intn(3), r.Intn(3)
				knob := runDiffLeg(t, exIJ, sql, pf, par)
				sameOutput(t, fmt.Sprintf("%s [ij prefetch=%d parallel=%d vs defaults]", sql, pf, par), strIJ, knob)

				// Aggregates are order-insensitive: the two QES
				// implementations agree byte for byte.
				if agg {
					sameOutput(t, sql+" [ij vs gh]", strIJ, strGH)
				}
			}
		})
	}
}

// TestDifferentialUnderFaults adds the fault-injected leg: generated
// queries over a replicated dataset under an op-counted chaos schedule,
// per engine. Fresh clusters per run replay the identical fault sequence;
// recovery must be invisible — faulted output matches the oracle, and
// under IJ the fault-free run row for row.
func TestDifferentialUnderFaults(t *testing.T) {
	cfg := oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 3, Seed: 23,
	}
	ds, err := oilres.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oilres.Replicate(ds.Catalog, ds.Stores, 2); err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, ds, goldenViews...)
	newEx := func(t *testing.T, force, faults string) *Executor {
		inj, err := fault.Parse(faults)
		if err != nil {
			t.Fatal(err)
		}
		return datasetExecutor(t, ds, 2, force, chaosConfig(inj))
	}
	faults := map[string]string{
		"ij": "crash:storage-1:fetch:5,crash:compute-0:edge:3",
		"gh": "crash:storage-1:fetch:5,crash:compute-0:write:3",
	}
	r := rand.New(rand.NewSource(4242))
	dims := [3]int{8, 8, 4}
	for q := 0; q < 4; q++ {
		sql, _ := genDiffQuery(r, dims)
		for _, force := range []string{"ij", "gh"} {
			got := runOracle(t, o, newEx(t, force, faults[force]), sql, force+" faulted")
			if force == "ij" {
				clean := runOracle(t, o, newEx(t, force, ""), sql, "ij fault-free")
				sameOutput(t, sql+" [ij faulted vs fault-free]", clean, got)
			}
		}
	}
}
