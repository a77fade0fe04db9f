package service

import (
	"context"
	"strings"
	"testing"

	"sciview/internal/metrics"
	"sciview/internal/planner"
)

// adaptiveService builds a service over its own (identical, same-seed)
// cluster with the V view defined, plus a reference executor reading
// through the same executor's views.
func adaptiveService(t *testing.T, cfg Config) (*Service, *planner.Executor) {
	t.Helper()
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	svc := newService(cl, cfg)
	t.Cleanup(func() { svc.Close() })
	ex := svc.Executor()
	if _, err := ex.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	return svc, ex
}

// TestSubmitSQLCostModelDefault exercises the service's default decision
// path (Force unset): every query's engine comes from the Estimator, and
// the differential requirement holds — the calibrated service, the
// static-pinned service, and both forced services must all return
// byte-identical rows for order-pinned queries.
func TestSubmitSQLCostModelDefault(t *testing.T) {
	reg := metrics.NewRegistry()
	auto, autoEx := adaptiveService(t, Config{MaxInFlight: 2, Metrics: reg})
	static, staticEx := adaptiveService(t, Config{MaxInFlight: 2, NoCalibrate: true})
	ij, ijEx := adaptiveService(t, Config{MaxInFlight: 2, Force: "ij"})
	gh, ghEx := adaptiveService(t, Config{MaxInFlight: 2, Force: "gh"})

	// Total ORDER BY keys (the join row is identified by its cell) and
	// order-insensitive aggregates pin the bytes no matter which engine any
	// planner picks.
	corpus := []string{
		"SELECT * FROM V ORDER BY x, y, z",
		"SELECT x, y, z, wp, oilp FROM V WHERE x BETWEEN 0 AND 5 ORDER BY x, y, z",
		"SELECT z, COUNT(*), MIN(wp), MAX(oilp) FROM V GROUP BY z ORDER BY z",
		"SELECT COUNT(*) FROM V WHERE y < 4",
	}

	// Warm the adaptive service past MinSamples so the scored submissions
	// below actually run on calibrated constants.
	for i := 0; i < 3; i++ {
		if _, err := auto.SubmitSQL(context.Background(), autoEx, SQL{Query: corpus[0]}); err != nil {
			t.Fatal(err)
		}
	}

	sawCalibrated := false
	for _, q := range corpus {
		refIJ, err := ij.SubmitSQL(context.Background(), ijEx, SQL{Query: q})
		if err != nil {
			t.Fatalf("%s [forced ij]: %v", q, err)
		}
		refGH, err := gh.SubmitSQL(context.Background(), ghEx, SQL{Query: q})
		if err != nil {
			t.Fatalf("%s [forced gh]: %v", q, err)
		}
		// Sanity: the corpus really is engine-order-insensitive.
		assertSameTable(t, q+" [ij vs gh]", refIJ.Rows, refGH.Rows)

		for name, run := range map[string]struct {
			svc *Service
			ex  *planner.Executor
		}{"calibrated": {auto, autoEx}, "static": {static, staticEx}} {
			resp, err := run.svc.SubmitSQL(context.Background(), run.ex, SQL{Query: q})
			if err != nil {
				t.Fatalf("%s [%s]: %v", q, name, err)
			}
			if resp.Decision == nil {
				t.Fatalf("%s [%s]: no decision", q, name)
			}
			if resp.Decision.Forced {
				t.Errorf("%s [%s]: decision reports forced with Force unset", q, name)
			}
			if resp.Decision.Chosen != "ij" && resp.Decision.Chosen != "gh" {
				t.Errorf("%s [%s]: chose %q", q, name, resp.Decision.Chosen)
			}
			if name == "static" && resp.Decision.Calibrated {
				t.Errorf("%s: NoCalibrate service produced a calibrated decision", q)
			}
			if name == "calibrated" && resp.Decision.Calibrated {
				sawCalibrated = true
			}
			assertSameTable(t, q+" ["+name+"]", refIJ.Rows, resp.Rows)
		}
	}
	if !sawCalibrated {
		t.Error("warmed adaptive service never used calibrated constants")
	}

	// The decision counter and constants gauges ride the service's registry.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	scrape := sb.String()
	for _, want := range []string{
		`sciview_planner_decisions_total{calibrated="true",chosen=`,
		`sciview_planner_constant{constant="alpha_build_seconds"}`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %s", want)
		}
	}
}
