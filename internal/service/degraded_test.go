package service

import (
	"context"
	"errors"
	"testing"
)

// TestDegradedAdmissionSQL is the admission-control regression test for
// out-of-core execution: a SQL query whose resident estimate exceeds the
// service budget used to be clamped to run alone at full memory width.
// Now it must be admitted in degraded mode — plan stamped with the
// budget, charged the (smaller) degraded estimate, blocking operators
// spilling to scratch — with rows identical to the unbudgeted reference.
func TestDegradedAdmissionSQL(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	const budget = 1 << 10
	svc := newService(cl, Config{MaxInFlight: 4, MemoryBudget: budget, Force: "ij"})
	defer svc.Close()
	ex := svc.Executor()
	if _, err := ex.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	ref := svc.Executor() // unbudgeted: the plain in-memory reference
	if _, err := ref.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT x, y, COUNT(*), MIN(wp) FROM V GROUP BY x, y ORDER BY x DESC, y"
	want, err := ref.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.SubmitSQL(context.Background(), ex, SQL{Query: q})
	if err != nil {
		t.Fatalf("over-budget query rejected instead of degraded: %v", err)
	}
	if !resp.Degraded {
		t.Error("response not marked degraded; the estimate should exceed the 1 KiB budget")
	}
	if resp.Weight > budget {
		t.Errorf("degraded weight %d exceeds the budget %d", resp.Weight, budget)
	}
	assertSameTable(t, q, want.Rows, resp.Rows)

	// The old clamp ran the query fully in memory; degraded admission must
	// actually push work to scratch.
	if resp.Result == nil {
		t.Fatal("degraded run carried no engine result")
	}
	var spillBytes, spillParts int64
	for _, st := range resp.Result.Operators {
		spillBytes += st.SpillBytes
		spillParts += st.SpillParts
	}
	if spillBytes == 0 || spillParts == 0 {
		t.Errorf("degraded run recorded no spill (bytes=%d parts=%d): %+v",
			spillBytes, spillParts, resp.Result.Operators)
	}
	if st := svc.Stats(); st.Degraded != 1 {
		t.Errorf("stats degraded = %d, want 1 (%+v)", st.Degraded, st)
	}
}

// TestDegradedAdmissionRaw: the raw (cost-model-weighted) submission path
// degrades the same way — the request is stamped with the budget and the
// engine bounds its build sides with scratch round-trips.
func TestDegradedAdmissionRaw(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	const budget = 512
	svc := newService(cl, Config{MaxInFlight: 4, MemoryBudget: budget, Force: "ij"})
	defer svc.Close()

	resp, err := svc.Submit(context.Background(), Query{Req: testReq()})
	if err != nil {
		t.Fatalf("over-budget raw query rejected instead of degraded: %v", err)
	}
	if !resp.Degraded {
		t.Error("raw response not marked degraded")
	}
	if resp.Weight > budget {
		t.Errorf("degraded weight %d exceeds the budget %d", resp.Weight, budget)
	}
	if resp.Result.Observed.SpillWriteBytes == 0 || resp.Result.Observed.SpillReadBytes == 0 {
		t.Errorf("degraded engine run recorded no spill traffic: %+v", resp.Result.Observed)
	}
	if st := svc.Stats(); st.Degraded != 1 {
		t.Errorf("stats degraded = %d, want 1 (%+v)", st.Degraded, st)
	}
}

// TestStrictRejectsOverBudget: Strict restores the historical behavior —
// an over-budget estimate is rejected with ErrOverBudget on both
// submission paths, never silently degraded.
func TestStrictRejectsOverBudget(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	svc := newService(cl, Config{MaxInFlight: 4, MemoryBudget: 512, Strict: true, Force: "ij"})
	defer svc.Close()
	ex := svc.Executor()
	if _, err := ex.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}

	if _, err := svc.Submit(context.Background(), Query{Req: testReq()}); !errors.Is(err, ErrOverBudget) {
		t.Errorf("strict raw submit: err = %v, want ErrOverBudget", err)
	}
	if _, err := svc.SubmitSQL(context.Background(), ex,
		SQL{Query: "SELECT * FROM V ORDER BY x, y, z"}); !errors.Is(err, ErrOverBudget) {
		t.Errorf("strict SQL submit: err = %v, want ErrOverBudget", err)
	}
	st := svc.Stats()
	if st.Degraded != 0 {
		t.Errorf("strict mode counted %d degraded admissions", st.Degraded)
	}
	if st.Rejected != 2 {
		t.Errorf("strict mode counted %d rejections, want 2", st.Rejected)
	}
}
