package chaos

import (
	"sciview/internal/engine/enginetest"
	"testing"

	"sciview/internal/ij"
)

// TestPrefetchUnderCrashSchedule reruns the headline crash scenario with
// the IJ prefetcher enabled: a storage node dies while lookahead fetches
// are in flight and a compute node dies mid-schedule with prefetches
// outstanding. The prefetcher must not change the result (its fetches go
// through the same singleflight and failover path as demand fetches, and a
// re-assigned slot cancels and reaps its in-flight prefetches before the
// survivor replays the schedule), so the output stays identical to the
// fault-free, prefetch-free baseline.
func TestPrefetchUnderCrashSchedule(t *testing.T) {
	ds := replicatedDataset(t)
	e := ij.New()

	cl, _ := chaosCluster(t, ds, "")
	_, baseRows, err := enginetest.Run(e, cl, chaosReq())
	if err != nil {
		t.Fatal(err)
	}
	want := rowsExact(baseRows)

	spec := "crash:storage-1:fetch:5,crash:compute-0:edge:3"
	for run := 0; run < 2; run++ {
		cl, inj := chaosCluster(t, ds, spec)
		r := chaosReq()
		r.Prefetch = 2
		r.Parallelism = 4
		res, rows, err := enginetest.Run(e, cl, r)
		if err != nil {
			t.Fatalf("faulted prefetch run %d: %v", run, err)
		}
		sameRows(t, "faulted prefetch run vs fault-free baseline", rowsExact(rows), want)
		// The prefetcher adds no edge ops, so the compute crash still fires
		// at the same point; the storage crash count stays at 5 fetch ops
		// only if prefetch fetches flow through the same counted fault path.
		if c := inj.Stats().Crashes; c != 2 {
			t.Errorf("run %d: crashes = %d, want 2 (one storage, one compute)", run, c)
		}
		if res.Health.Recoveries == 0 {
			t.Errorf("run %d: compute node died but no slot was recovered", run)
		}
		if res.Health.Failovers == 0 {
			t.Errorf("run %d: storage node died but no fetch failed over", run)
		}
	}
}
