package planner

import (
	"fmt"
	"strings"
	"testing"

	"sciview/internal/engine"
	"sciview/internal/trace"
)

// The accounting-consistency suite: calibration feedback
// (Result.Observed) and the spilling operators' OpStat are derived from
// the same span totals -trace prints, so every measured quantity must
// equal the sum of the matching spans a user recorder saw, and attaching
// that recorder must not change the feedback.

// spanTotals sums bytes and items per kind over the events whose detail
// starts with prefix ("" = all).
func spanTotals(events []trace.Event, prefix string) map[trace.Kind]trace.KindSummary {
	out := make(map[trace.Kind]trace.KindSummary)
	for _, e := range events {
		if !strings.HasPrefix(e.Detail, prefix) {
			continue
		}
		s := out[e.Kind]
		s.Kind = e.Kind
		s.Count++
		s.Bytes += e.Bytes
		s.Items += e.Items
		out[e.Kind] = s
	}
	return out
}

// untimed zeroes an observation's seconds, leaving the fields a run
// determines exactly.
func untimed(o engine.Observed) engine.Observed {
	o.FetchSeconds, o.BuildSeconds, o.ProbeSeconds = 0, 0, 0
	o.SpillWriteSeconds, o.SpillReadSeconds = 0, 0
	return o
}

// TestAccountingConsistency runs IJ and GH, unbudgeted and at a budget
// that spills, and ties Result.Observed to the spans of the run.
func TestAccountingConsistency(t *testing.T) {
	const wf = 3
	for _, force := range []string{"ij", "gh"} {
		for _, budget := range []int64{0, 1 << 10} {
			t.Run(fmt.Sprintf("%s/budget=%d", force, budget), func(t *testing.T) {
				ex := goldenExecutor(t, 2, force)
				run := func(rec *trace.Recorder) *engine.Result {
					t.Helper()
					req := engine.Request{
						LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y", "z"},
						WorkFactor: wf, Prefetch: engine.DefaultPrefetch,
						MemoryBudget: budget, Trace: rec,
					}
					eng, _, err := ex.Planner.Decide(ex.Cluster, req)
					if err != nil {
						t.Fatal(err)
					}
					res, err := eng.Run(ex.Cluster, req)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				rec := trace.New()
				obs := run(rec).Observed
				spans := spanTotals(rec.Events(), "")
				if obs.FetchBytes == 0 || obs.BuildTuples == 0 || obs.ProbeTuples == 0 {
					t.Fatalf("run measured no work: %+v", obs)
				}
				if budget > 0 && (obs.SpillWriteBytes == 0 || obs.SpillReadBytes == 0) {
					t.Fatalf("budget %d did not spill: %+v", budget, obs)
				}
				checks := []struct {
					name      string
					got, want int64
				}{
					{"FetchBytes", obs.FetchBytes, spans[trace.KindFetch].Bytes},
					{"BuildTuples", obs.BuildTuples, spans[trace.KindBuild].Items * wf},
					{"ProbeTuples", obs.ProbeTuples, spans[trace.KindProbe].Items * wf},
					{"SpillWriteBytes", obs.SpillWriteBytes, spans[trace.KindSpill].Bytes},
					{"SpillReadBytes", obs.SpillReadBytes, spans[trace.KindBucketRead].Bytes},
				}
				for _, c := range checks {
					if c.got != c.want {
						t.Errorf("%s = %d, spans say %d", c.name, c.got, c.want)
					}
				}
				if bare := run(nil).Observed; untimed(bare) != untimed(obs) {
					t.Errorf("tracing changed the feedback:\n traced   %+v\n untraced %+v",
						untimed(obs), untimed(bare))
				}
			})
		}
	}
}

// TestAccountingConsistencyOperators checks a spilling sort and a
// spilling aggregate: each operator's OpStat spill bytes equal the
// bytes of the spans its scratch files produced, traced or not.
func TestAccountingConsistencyOperators(t *testing.T) {
	const sql = "SELECT x, y, COUNT(*), MIN(wp) FROM V1 GROUP BY x, y ORDER BY x DESC, y"
	ex := goldenExecutor(t, 2, "ij")
	ex.MemBudget = sweepBudgets[len(sweepBudgets)-1]
	exec := func(rec *trace.Recorder) map[string]engine.OpStat {
		t.Helper()
		ex.Trace = rec
		out, err := ex.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if out.Result == nil {
			t.Fatal("query carried no engine result")
		}
		ops := make(map[string]engine.OpStat)
		for _, st := range out.Result.Operators {
			for _, op := range []string{"Sort", "Aggregate"} {
				if strings.HasPrefix(st.Op, op) {
					ops[op] = st
				}
			}
		}
		return ops
	}
	rec := trace.New()
	ops := exec(rec)
	events := rec.Events()
	for op, prefix := range map[string]string{"Sort": "plan/sort/", "Aggregate": "plan/agg/"} {
		st, ok := ops[op]
		if !ok {
			t.Fatalf("no %s operator in the plan", op)
		}
		spans := spanTotals(events, prefix)
		if st.SpillBytes == 0 || st.SpillReadBytes == 0 {
			t.Errorf("%s did not spill: %+v", op, st)
		}
		if st.SpillBytes != spans[trace.KindSpill].Bytes || st.SpillReadBytes != spans[trace.KindBucketRead].Bytes {
			t.Errorf("%s spill = %d written / %d read, spans say %d / %d", op,
				st.SpillBytes, st.SpillReadBytes, spans[trace.KindSpill].Bytes, spans[trace.KindBucketRead].Bytes)
		}
	}
	bare := exec(nil)
	for _, op := range []string{"Sort", "Aggregate"} {
		if bare[op].SpillBytes != ops[op].SpillBytes || bare[op].SpillReadBytes != ops[op].SpillReadBytes {
			t.Errorf("tracing changed %s's spill accounting: traced %+v, untraced %+v", op, ops[op], bare[op])
		}
	}
}
