package planner

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The budget-sweep differential harness: out-of-core execution must be an
// implementation detail. Every query's output at every budget — from
// everything-fits down to a few batches of scratch — must match the
// oracle, and under IJ the unbudgeted output byte for byte; the spill
// machinery it exercised must be visible in the operator stats, never in
// the rows.

// sweepBudgets spans the degradation range over the golden dataset (~256
// join rows): 1 GiB fits everything (budget stamped, mode in-mem), 16 KiB
// forces the wide sorts external, 1 KiB forces sort, grouped aggregation
// and the join build side all out-of-core at once.
var sweepBudgets = []int64{1 << 30, 16 << 10, 1 << 10}

// sweepCorpus is the golden corpus plus seeded-random queries: filtered
// scans under a total order, grouped aggregates, and measure sorts with
// unique tie-breaks — shapes that stay byte-comparable under either
// engine.
func sweepCorpus() []string {
	qs := append([]string(nil), goldenCorpus...)
	rng := rand.New(rand.NewSource(0x5eed))
	dims := []string{"x", "y", "z"}
	for i := 0; i < 6; i++ {
		switch rng.Intn(3) {
		case 0:
			d := dims[rng.Intn(len(dims))]
			lo := rng.Intn(4)
			sql := fmt.Sprintf(
				"SELECT * FROM V1 WHERE %s BETWEEN %d AND %d ORDER BY x, y, z LIMIT %d",
				d, lo, lo+rng.Intn(4), 1+rng.Intn(40))
			qs = append(qs, sql)
		case 1:
			g := dims[rng.Intn(len(dims))]
			sql := fmt.Sprintf(
				"SELECT %s, COUNT(*), MIN(wp), MAX(oilp), SUM(wp), AVG(oilp) FROM V1 GROUP BY %s ORDER BY %s",
				g, g, g)
			qs = append(qs, sql)
		default:
			// (x, y, z) is a join key, so the tie-break is total: exact
			// under any engine.
			sql := fmt.Sprintf(
				"SELECT x, y, z, wp FROM V1 ORDER BY wp DESC, x, y, z LIMIT %d",
				1+rng.Intn(30))
			qs = append(qs, sql)
		}
	}
	return qs
}

// TestDifferentialBudgetSweep runs the sweep corpus at every budget
// against the oracle. IJ output is byte-deterministic, so the IJ leg also
// compares every budgeted run with the unbudgeted one row for row.
func TestDifferentialBudgetSweep(t *testing.T) {
	cases := []struct {
		name  string
		nj    int
		force string
	}{
		{"ij-nj2", 2, "ij"},
		{"gh-nj2", 2, "gh"},
	}
	corpus := sweepCorpus()
	o := goldenOracle(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := goldenExecutor(t, tc.nj, tc.force)
			for _, q := range corpus {
				ex.MemBudget = 0
				want := runOracle(t, o, ex, q, "unbudgeted")
				for _, budget := range sweepBudgets {
					ex.MemBudget = budget
					label := fmt.Sprintf("budget %d", budget)
					got := runOracle(t, o, ex, q, label)
					if want != nil && tc.force == "ij" {
						sameOutput(t, q+" ["+label+" vs unbudgeted]", want, got)
					}
				}
			}
		})
	}
}

// TestBudgetSweepSpillsAllOperators pins the degradation floor: at the
// smallest sweep budget a sort + grouped-aggregate + join query must push
// all three blocking operators out-of-core in a single run — visible in
// the per-operator spill counters — while the rows stay identical to the
// unbudgeted run.
func TestBudgetSweepSpillsAllOperators(t *testing.T) {
	const sql = "SELECT x, y, COUNT(*), MIN(wp) FROM V1 GROUP BY x, y ORDER BY x DESC, y"
	ex := goldenExecutor(t, 2, "ij")
	ex.MemBudget = 0
	want, err := ex.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	ex.MemBudget = sweepBudgets[len(sweepBudgets)-1]
	got, err := ex.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, sql, want, got)

	if got.Result == nil {
		t.Fatal("budgeted run carried no engine result")
	}
	spilled := map[string]bool{}
	for _, st := range got.Result.Operators {
		kind := st.Op
		if k := strings.IndexByte(kind, '('); k >= 0 {
			kind = kind[:k]
		}
		switch {
		case strings.HasPrefix(kind, "Sort"):
			if st.SpillBytes > 0 && st.SpillParts > 0 {
				spilled["sort"] = true
			}
		case strings.HasPrefix(kind, "Aggregate"):
			if st.SpillBytes > 0 && st.SpillParts > 0 {
				spilled["aggregate"] = true
			}
		case strings.HasPrefix(kind, "Join"):
			if st.SpillBytes > 0 && st.SpillReadBytes > 0 {
				spilled["join"] = true
			}
		}
	}
	for _, op := range []string{"sort", "aggregate", "join"} {
		if !spilled[op] {
			t.Errorf("budget %d: %s did not spill; operator stats: %+v",
				sweepBudgets[len(sweepBudgets)-1], op, got.Result.Operators)
		}
	}

	// The unbudgeted reference must not have spilled anything.
	if want.Result != nil {
		for _, st := range want.Result.Operators {
			if st.SpillBytes != 0 || st.SpillParts != 0 {
				t.Errorf("unbudgeted run spilled: %+v", st)
			}
		}
	}
}

// TestExplainSpillAnnotations: budget-stamped plans render the spill line
// on every spill-capable operator, with the mode the estimate selects.
func TestExplainSpillAnnotations(t *testing.T) {
	ex := goldenExecutor(t, 2, "ij")
	const sql = "EXPLAIN SELECT x, COUNT(*) FROM V1 GROUP BY x ORDER BY x"

	out, err := ex.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.Explain, "spill:") {
		t.Errorf("unbudgeted explain has a spill line:\n%s", out.Explain)
	}

	ex.MemBudget = 1 << 10
	out, err = ex.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.Explain, "spill: budget="); n != 3 {
		t.Errorf("budgeted explain has %d spill lines, want 3 (sort, aggregate, join):\n%s", n, out.Explain)
	}
	if !strings.Contains(out.Explain, "mode=external") {
		t.Errorf("1 KiB budget over ~256 join rows should show an external mode:\n%s", out.Explain)
	}

	ex.MemBudget = 1 << 30
	out, err = ex.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.Explain, "mode=external") {
		t.Errorf("1 GiB budget should keep every operator in-mem:\n%s", out.Explain)
	}
}
