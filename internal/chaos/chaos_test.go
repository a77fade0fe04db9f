package chaos

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/engine/enginetest"
	"sciview/internal/fault"
	"sciview/internal/gh"
	"sciview/internal/ij"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/retry"
	"sciview/internal/tuple"
)

const (
	storageNodes = 3
	computeNodes = 3
)

// replicatedDataset generates the matrix's dataset with every chunk placed
// on two storage nodes, so a single storage-node crash never loses data.
func replicatedDataset(t *testing.T) *oilres.Dataset {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid:         partition.D(16, 16, 8),
		LeftPart:     partition.D(4, 4, 4),
		RightPart:    partition.D(4, 4, 4),
		StorageNodes: storageNodes,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := oilres.Replicate(ds.Catalog, ds.Stores, 2); err != nil {
		t.Fatal(err)
	}
	return ds
}

// chaosCluster builds a fresh cluster over ds with the given fault
// schedule and fast retry/breaker tunables (so a dead node costs
// milliseconds, not the production backoff).
func chaosCluster(t *testing.T, ds *oilres.Dataset, faults string) (*cluster.Cluster, *fault.Injector) {
	t.Helper()
	inj, err := fault.Parse(faults)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: storageNodes, ComputeNodes: computeNodes, CacheBytes: 32 << 20,
		Faults:           inj,
		Retry:            retry.Policy{Attempts: 3, Base: time.Millisecond, Max: 4 * time.Millisecond},
		BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	return cl, inj
}

func chaosReq() engine.Request {
	return engine.Request{
		LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y", "z"},
	}
}

// rowsExact flattens collected batches to printable rows preserving
// order — the byte-identical comparison for IJ, whose per-slot outputs
// replay deterministically.
func rowsExact(collected []*tuple.SubTable) []string {
	var out []string
	for _, st := range collected {
		if st == nil {
			continue
		}
		buf := make([]float32, st.Schema.NumAttrs())
		for r := 0; r < st.NumRows(); r++ {
			out = append(out, fmt.Sprint(st.Row(r, buf)))
		}
	}
	return out
}

// rowsSorted is rowsExact canonically sorted — the comparison for GH,
// whose row order depends on scanner interleaving even without faults.
func rowsSorted(collected []*tuple.SubTable) []string {
	out := rowsExact(collected)
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %s, want %s", label, i, got[i], want[i])
		}
	}
}

func engines() map[string]engine.Engine {
	return map[string]engine.Engine{"ij": ij.New(), "gh": gh.New()}
}

// TestFaultMatrix runs both engines under each fault class — transient
// drops, injected delays, and a storage-node crash — asserting the join
// result is exactly the fault-free one and that the expected recovery
// machinery engaged.
func TestFaultMatrix(t *testing.T) {
	ds := replicatedDataset(t)

	want := map[string][]string{}
	for name, e := range engines() {
		cl, _ := chaosCluster(t, ds, "")
		res, rows, err := enginetest.Run(e, cl, chaosReq())
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		if !res.Health.Zero() {
			t.Fatalf("%s baseline recorded health activity: %+v", name, res.Health)
		}
		want[name] = rowsSorted(rows)
	}

	cases := []struct {
		name   string
		faults string
		// check asserts the fault class actually engaged its recovery path.
		check func(t *testing.T, res *engine.Result, inj *fault.Injector)
	}{
		{
			name: "drop", faults: "drop:storage-1:fetch:3",
			check: func(t *testing.T, res *engine.Result, inj *fault.Injector) {
				if inj.Stats().Drops == 0 {
					t.Error("no drops fired")
				}
				if res.Health.Retries == 0 {
					t.Error("drops fired but nothing was retried")
				}
			},
		},
		{
			name: "delay", faults: "delay:*:fetch:4:2ms",
			check: func(t *testing.T, res *engine.Result, inj *fault.Injector) {
				if inj.Stats().Delays == 0 {
					t.Error("no delays fired")
				}
			},
		},
		{
			name: "crash-storage", faults: "crash:storage-1:fetch:5",
			check: func(t *testing.T, res *engine.Result, inj *fault.Injector) {
				if inj.Stats().Crashes != 1 {
					t.Errorf("crashes = %d, want 1", inj.Stats().Crashes)
				}
				if res.Health.Failovers == 0 {
					t.Error("storage node crashed but no fetch failed over")
				}
			},
		},
	}
	for engName, e := range engines() {
		for _, tc := range cases {
			t.Run(engName+"/"+tc.name, func(t *testing.T) {
				cl, inj := chaosCluster(t, ds, tc.faults)
				res, rows, err := enginetest.Run(e, cl, chaosReq())
				if err != nil {
					t.Fatalf("run under %q: %v", tc.faults, err)
				}
				sameRows(t, "result", rowsSorted(rows), want[engName])
				tc.check(t, res, inj)
			})
		}
	}
}

// TestCrashStorageAndComputeMidJoin is the headline chaos scenario: one
// seeded schedule crashes a storage node mid-scan AND a compute node
// mid-join. Both engines must complete with results identical to the
// fault-free run — byte-identical for IJ (slot outputs replay in order),
// canonically sorted for GH (row order is nondeterministic by design).
func TestCrashStorageAndComputeMidJoin(t *testing.T) {
	ds := replicatedDataset(t)

	// IJ: compute-0 dies at its 3rd scheduled edge; the slot re-runs on a
	// survivor with identical output.
	t.Run("ij", func(t *testing.T) {
		e := ij.New()
		cl, _ := chaosCluster(t, ds, "")
		base, baseRows, err := enginetest.Run(e, cl, chaosReq())
		if err != nil {
			t.Fatal(err)
		}
		want := rowsExact(baseRows)

		spec := "crash:storage-1:fetch:5,crash:compute-0:edge:3"
		var prev []string
		for run := 0; run < 2; run++ { // twice: the schedule is deterministic
			cl, inj := chaosCluster(t, ds, spec)
			res, rows, err := enginetest.Run(e, cl, chaosReq())
			if err != nil {
				t.Fatalf("faulted run %d: %v", run, err)
			}
			got := rowsExact(rows)
			sameRows(t, fmt.Sprintf("faulted run %d vs baseline", run), got, want)
			if prev != nil {
				sameRows(t, "faulted run 1 vs faulted run 0", got, prev)
			}
			prev = got
			if c := inj.Stats().Crashes; c != 2 {
				t.Errorf("run %d: crashes = %d, want 2 (one storage, one compute)", run, c)
			}
			if res.Health.Recoveries == 0 {
				t.Errorf("run %d: compute node died but no slot was recovered", run)
			}
			if res.Health.Failovers == 0 {
				t.Errorf("run %d: storage node died but no fetch failed over", run)
			}
			if res.Health.BreakerTrips == 0 {
				t.Errorf("run %d: repeated failures on the dead node never tripped its breaker", run)
			}
			if res.Tuples != base.Tuples {
				t.Errorf("run %d: tuples = %d, want %d", run, res.Tuples, base.Tuples)
			}
		}
	})

	// GH: compute-0 dies at its 3rd scratch write (mid-flush); its
	// partition group is rebuilt from replicas on a survivor.
	t.Run("gh", func(t *testing.T) {
		e := gh.New()
		cl, _ := chaosCluster(t, ds, "")
		base, baseRows, err := enginetest.Run(e, cl, chaosReq())
		if err != nil {
			t.Fatal(err)
		}
		want := rowsSorted(baseRows)

		cl, inj := chaosCluster(t, ds, "crash:storage-1:fetch:5,crash:compute-0:write:3")
		res, rows, err := enginetest.Run(e, cl, chaosReq())
		if err != nil {
			t.Fatalf("faulted run: %v", err)
		}
		sameRows(t, "faulted vs baseline", rowsSorted(rows), want)
		if c := inj.Stats().Crashes; c != 2 {
			t.Errorf("crashes = %d, want 2 (one storage, one compute)", c)
		}
		if res.Health.Rebuilds == 0 {
			t.Error("compute node died but no partition group was rebuilt")
		}
		if res.Health.Failovers == 0 {
			t.Error("storage node died but no scan failed over")
		}
		if res.Tuples != base.Tuples {
			t.Errorf("tuples = %d, want %d", res.Tuples, base.Tuples)
		}
	})
}

// TestCrashWithoutReplicasFails pins the negative: the same storage crash
// without replication must surface an error, not silently return a partial
// join.
func TestCrashWithoutReplicasFails(t *testing.T) {
	ds, err := oilres.Generate(oilres.Config{
		Grid:         partition.D(16, 16, 8),
		LeftPart:     partition.D(4, 4, 4),
		RightPart:    partition.D(4, 4, 4),
		StorageNodes: storageNodes,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range engines() {
		cl, _ := chaosCluster(t, ds, "crash:storage-1:fetch:5")
		if _, err := e.Run(cl, chaosReq()); err == nil {
			t.Errorf("%s: storage crash without replicas should fail the query", name)
		}
	}
}
