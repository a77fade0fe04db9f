package planner

import (
	"strings"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// BenchmarkLimitEarlyExit measures what streaming buys for
// `SELECT ... LIMIT n`: the join is cancelled once the limit is
// satisfied. Reported metrics:
//
//	edgefrac — fraction of the IJ edge schedule actually joined
//	peakMB   — resident join output (the reorder sink's peak)
func BenchmarkLimitEarlyExit(b *testing.B) {
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(16, 16, 8), LeftPart: partition.D(4, 4, 4), RightPart: partition.D(4, 4, 4),
		StorageNodes: 2, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 4, CacheBytes: 32 << 20,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		b.Fatal(err)
	}
	ex := NewExecutor(cl)
	ex.Planner.AlphaBuild = 80e-9
	ex.Planner.AlphaLookup = 40e-9
	ex.Planner.Force = "ij"
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		b.Fatal(err)
	}
	const q = "SELECT * FROM V1 LIMIT 64"

	b.Run("streaming", func(b *testing.B) {
		var joined, total, peak int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := ex.Exec(q)
			if err != nil {
				b.Fatal(err)
			}
			if out.Rows.NumRows() != 64 {
				b.Fatalf("rows = %d, want 64", out.Rows.NumRows())
			}
			res := out.Result
			joined += res.UnitsJoined
			total += res.UnitsTotal
			for _, op := range res.Operators {
				if strings.HasPrefix(op.Op, "Join[") {
					peak += op.PeakBytes
				}
			}
		}
		b.StopTimer()
		if total > 0 {
			b.ReportMetric(float64(joined)/float64(total), "edgefrac")
		}
		if b.N > 0 {
			b.ReportMetric(float64(peak)/float64(b.N)/(1<<20), "peakMB")
		}
	})
}
