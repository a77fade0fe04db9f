package planner

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/fault"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/retry"
	"sciview/internal/tuple"
)

// goldenViews are the views every golden executor and oracle define.
var goldenViews = []string{
	"CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)",
	"CREATE VIEW V2 AS SELECT * FROM V1 WHERE x BETWEEN 0 AND 4",
}

// goldenCorpus is the full SQL surface every execution leg must answer
// like the oracle: every ORDER BY + LIMIT + HAVING combination,
// projections, pushdowns, derived views, table scans, SUM/AVG, and the
// validation errors.
var goldenCorpus = []string{
	"SELECT * FROM V1",
	"SELECT * FROM V1 WHERE x BETWEEN 0 AND 3 AND z = 0",
	"SELECT * FROM V1 WHERE wp >= 0",
	"SELECT wp, oilp FROM V1 WHERE z = 1",
	"SELECT * FROM V1 ORDER BY x, y, z",
	"SELECT * FROM V1 ORDER BY x DESC, y, z LIMIT 5",
	"SELECT wp, oilp FROM V1 ORDER BY wp DESC, oilp LIMIT 7",
	"SELECT * FROM V1 LIMIT 3",
	"SELECT * FROM V1 LIMIT 0",
	"SELECT * FROM V1 LIMIT 100000",
	"SELECT x, COUNT(*), MIN(wp), MAX(wp) FROM V1 GROUP BY x ORDER BY x",
	"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x",
	"SELECT z, SUM(oilp), COUNT(*) FROM V1 GROUP BY z HAVING COUNT(*) > 10 ORDER BY z DESC LIMIT 2",
	"SELECT MIN(wp), MAX(wp) FROM V1",
	"SELECT COUNT(*) FROM V1 WHERE y < 2",
	"SELECT * FROM V2",
	"SELECT oilp FROM V2 ORDER BY oilp LIMIT 4",
	// Table scans never touch a join engine.
	"SELECT * FROM T1 WHERE x = 0 AND y = 0",
	"SELECT oilp FROM T1 ORDER BY oilp DESC LIMIT 6",
	"SELECT x, AVG(oilp) FROM T1 GROUP BY x ORDER BY x LIMIT 3",
	"SELECT x, COUNT(*) FROM T1 GROUP BY x HAVING COUNT(*) >= 16 ORDER BY x",
	"SELECT COUNT(*) FROM T2",
	// Validation failures must surface.
	"SELECT nosuch FROM V1",
	"SELECT * FROM V1 ORDER BY nosuch",
	"SELECT wp FROM V1 ORDER BY x",
	"SELECT wp FROM V1 GROUP BY wp",
}

// goldenDataset generates the golden corpus' dataset (deterministic in
// its seed, so every call returns the same values).
func goldenDataset(t *testing.T) *oilres.Dataset {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func goldenOracle(t *testing.T) *oracle {
	t.Helper()
	return newOracle(t, goldenDataset(t), goldenViews...)
}

func goldenExecutor(t *testing.T, nj int, force string) *Executor {
	t.Helper()
	return datasetExecutor(t, goldenDataset(t), nj, force, cluster.Config{})
}

// datasetExecutor builds an executor over ds with the golden views
// defined. cfg supplies extra cluster settings (wire codec, faults).
func datasetExecutor(t *testing.T, ds *oilres.Dataset, nj int, force string, cfg cluster.Config) *Executor {
	t.Helper()
	cfg.StorageNodes = len(ds.Stores)
	cfg.ComputeNodes = nj
	cfg.CacheBytes = 16 << 20
	cl, err := cluster.New(cfg, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cl)
	ex.Planner.AlphaBuild = 80e-9
	ex.Planner.AlphaLookup = 40e-9
	ex.Planner.Force = force
	for _, ddl := range goldenViews {
		if _, err := ex.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return ex
}

func goldenRows(st *tuple.SubTable) []string {
	if st == nil {
		return nil
	}
	buf := make([]float32, st.Schema.NumAttrs())
	var out []string
	for r := 0; r < st.NumRows(); r++ {
		out = append(out, fmt.Sprint(st.Row(r, buf)))
	}
	return out
}

// TestGoldenStreamingMatchesMaterialized is the acceptance test of the
// single SELECT path: the full corpus through the streaming plan must
// reproduce the oracle's materialized answer at several compute-node
// counts, under both forced engines and under the cost-model choice.
func TestGoldenStreamingMatchesMaterialized(t *testing.T) {
	cases := []struct {
		name  string
		nj    int
		force string
	}{
		{"ij-nj1", 1, "ij"},
		{"ij-nj3", 3, "ij"},
		{"gh-nj2", 2, "gh"},
		{"auto-nj2", 2, ""},
	}
	o := goldenOracle(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := goldenExecutor(t, tc.nj, tc.force)
			for _, q := range goldenCorpus {
				runOracle(t, o, ex, q, tc.name)
			}
		})
	}
}

// TestGoldenPrefetchAndParallelism: prefetch and intra-slot parallelism
// change scheduling, never bytes — IJ output with the knobs set must equal
// the default-knob output row for row, and the oracle.
func TestGoldenPrefetchAndParallelism(t *testing.T) {
	ex := goldenExecutor(t, 3, "ij")
	o := goldenOracle(t)
	knobs := []struct {
		name        string
		prefetch    int
		parallelism int
	}{
		{"prefetch2", 2, 0},
		{"parallel2", 0, 2},
		{"prefetch2-parallel2", 2, 2},
	}
	corpus := []string{
		"SELECT * FROM V1",
		"SELECT * FROM V1 ORDER BY x, y, z LIMIT 9",
		"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x",
	}
	for _, k := range knobs {
		t.Run(k.name, func(t *testing.T) {
			for _, q := range corpus {
				base := runOracle(t, o, ex, q, "default knobs")
				got := runDiffLeg(t, ex, q, k.prefetch, k.parallelism)
				sameOutput(t, q+" ["+k.name+" vs default]", base, got)
			}
		})
	}
}

// TestGoldenUnderChaos re-runs a corpus slice with fault injection: the
// streaming sink's commit-on-Done buffering must keep replayed parts
// invisible, so faulted output matches the oracle — and, under IJ, the
// fault-free run byte for byte. Each run gets a fresh cluster (fresh
// op-counted injector) over the same replicated dataset, like the chaos
// suite does.
func TestGoldenUnderChaos(t *testing.T) {
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 3, Seed: 11,
	})
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
		return datasetExecutor(t, ds, 3, force, chaosConfig(inj))
	}
	cases := []struct {
		name   string
		force  string
		faults string
		corpus []string
	}{
		{
			name: "ij", force: "ij",
			faults: "crash:storage-1:fetch:5,crash:compute-0:edge:3",
			corpus: []string{
				"SELECT * FROM V1",
				"SELECT * FROM V1 ORDER BY x, y, z LIMIT 20",
				"SELECT * FROM V1 LIMIT 10",
				"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x",
			},
		},
		{
			name: "gh", force: "gh",
			faults: "crash:storage-1:fetch:5,crash:compute-0:write:3",
			corpus: []string{
				"SELECT * FROM V1",
				"SELECT x, COUNT(*), MIN(wp), MAX(wp) FROM V1 GROUP BY x ORDER BY x",
				"SELECT z, SUM(oilp), AVG(wp) FROM V1 GROUP BY z ORDER BY z",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, q := range tc.corpus {
				// Fresh clusters per run: the injector schedule is op-counted.
				got := runOracle(t, o, newEx(t, tc.force, tc.faults), q, "faulted")
				if tc.force == "ij" {
					clean := runOracle(t, o, newEx(t, tc.force, ""), q, "fault-free")
					sameOutput(t, q+" [faulted vs fault-free]", clean, got)
				}
			}
		})
	}
}

// chaosConfig is the fault-injection cluster configuration with fast
// retry/breaker tunables, so a dead node costs milliseconds.
func chaosConfig(inj *fault.Injector) cluster.Config {
	return cluster.Config{
		Faults:           inj,
		Retry:            retry.Policy{Attempts: 3, Base: time.Millisecond, Max: 4 * time.Millisecond},
		BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond,
	}
}

// sumAvgCorpus groups SUM/AVG under a total ORDER BY: the output bytes
// are fully determined by the data, whatever engine, schedule or budget.
var sumAvgCorpus = []string{
	"SELECT z, AVG(wp) FROM V1 GROUP BY z ORDER BY z",
	"SELECT z, SUM(oilp), COUNT(*) FROM V1 GROUP BY z HAVING COUNT(*) > 10 ORDER BY z DESC",
	"SELECT y, SUM(wp), AVG(oilp), SUM(oilp) FROM V1 GROUP BY y HAVING SUM(wp) > -1e30 ORDER BY y",
}

// cancellingMeasures rewrites the measures of ds in place: on cells with
// x mod 4 in {0, 1} they become ±2^40..2^47, the pair (x, x+1) cancelling
// exactly, while the other cells keep their small values. Every y- or
// z-group then holds large pairs that sum to zero beside small values a
// float64 fold loses or keeps depending on the order the rows arrive in.
// The chunks must be rowmajor (its encoded size does not depend on
// values). Catalog bounds keep the old measure ranges, so queries over
// the rewritten data must not filter on measures.
func cancellingMeasures(t *testing.T, ds *oilres.Dataset) {
	t.Helper()
	for _, def := range ds.Catalog.Tables() {
		for _, d := range ds.Catalog.Chunks(def.ID) {
			for _, node := range d.Nodes() {
				obj, off, _ := d.Locate(node)
				data, err := ds.Stores[node].ReadRange(obj, off, d.Size)
				if err != nil {
					t.Fatal(err)
				}
				st, err := chunk.Extract(d, data)
				if err != nil {
					t.Fatal(err)
				}
				out := tuple.NewSubTable(st.ID, st.Schema, st.NumRows())
				for r := 0; r < st.NumRows(); r++ {
					row := st.Row(r, nil)
					if x, y, z := int(row[0]), int(row[1]), int(row[2]); x%4 < 2 {
						for c := 3; c < len(row); c++ {
							big := math.Ldexp(1, 40+(x/4+y+z+c)%8)
							if x%2 == 1 {
								big = -big
							}
							row[c] = float32(big)
						}
					}
					out.AppendRow(row...)
				}
				enc, err := chunk.RowMajor{}.Encode(out)
				if err != nil {
					t.Fatal(err)
				}
				size, err := ds.Stores[node].Size(obj)
				if err != nil {
					t.Fatal(err)
				}
				whole, err := ds.Stores[node].ReadRange(obj, 0, size)
				if err != nil {
					t.Fatal(err)
				}
				whole = append([]byte(nil), whole...)
				copy(whole[off:], enc)
				if err := ds.Stores[node].Put(obj, whole); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestGoldenSumAvgDeterministicUnderGH runs grouped SUM/AVG under GH
// repeatedly and across memory budgets over measures whose float64 sums
// depend on fold order: every run must return the same bytes, equal to
// the oracle's exact answer. An order-dependent accumulator fails this.
func TestGoldenSumAvgDeterministicUnderGH(t *testing.T) {
	// Three storage nodes' scanners interleave, so GH bucket contents
	// arrive in a different order from run to run.
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancellingMeasures(t, ds)
	o := newOracle(t, ds, goldenViews...)
	ex := datasetExecutor(t, ds, 3, "gh", cluster.Config{})
	for _, q := range sumAvgCorpus {
		var first *Output
		for run := 0; run < 4; run++ {
			for _, budget := range append([]int64{0}, sweepBudgets...) {
				ex.MemBudget = budget
				got := runOracle(t, o, ex, q, fmt.Sprintf("gh run %d budget %d", run, budget))
				if first == nil {
					first = got
				}
				sameOutput(t, fmt.Sprintf("%s [gh run %d budget %d vs first]", q, run, budget), first, got)
			}
		}
	}
	ex.MemBudget = 0
}

// TestConcurrentViewDefineAndSelect exercises the executor's views map
// from many goroutines (run under -race): CREATE VIEW racing SELECTs used
// to be an unsynchronized map access.
func TestConcurrentViewDefineAndSelect(t *testing.T) {
	ex := testExecutor(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("CV%d", i)
			if _, err := ex.Exec(fmt.Sprintf(
				"CREATE VIEW %s AS SELECT * FROM T1 JOIN T2 ON (x, y, z)", name)); err != nil {
				t.Error(err)
				return
			}
			if _, err := ex.Exec("SELECT COUNT(*) FROM " + name); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestExplainStatement: EXPLAIN renders the plan tree with the pushdown
// and the cost-model breakdown without executing anything.
func TestExplainStatement(t *testing.T) {
	ex := goldenExecutor(t, 2, "")
	out, err := ex.Exec("EXPLAIN SELECT wp FROM V1 WHERE x < 3 ORDER BY wp LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != nil {
		t.Error("EXPLAIN executed the query")
	}
	for _, wantSub := range []string{
		"Limit(5)", "Sort(wp)", "Project(wp)", "Join[", "cost: ij=", "chose=", "calib=", "Scan(T1)", "Scan(T2)", "project[",
	} {
		if !strings.Contains(out.Explain, wantSub) {
			t.Errorf("explain output missing %q:\n%s", wantSub, out.Explain)
		}
	}
	if out.Decision == nil {
		t.Error("EXPLAIN of a join query should carry the decision")
	}

	out, err = ex.Exec("EXPLAIN SELECT COUNT(*) FROM T1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Explain, "Scan(T1)") || !strings.Contains(out.Explain, "Aggregate(COUNT(*))") {
		t.Errorf("scan explain:\n%s", out.Explain)
	}
}
