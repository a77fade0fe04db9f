package ij

import (
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/engine/enginetest"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/tuple"
)

func makeCluster(t *testing.T, grid, p, q partition.Dims, ns, nj int, cacheBytes int64) *cluster.Cluster {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: p, RightPart: q, StorageNodes: ns, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: ns, ComputeNodes: nj, CacheBytes: cacheBytes,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func req() engine.Request {
	return engine.Request{
		LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y", "z"},
	}
}

func TestName(t *testing.T) {
	e := New()
	if e.Name() != "ij" || e.String() != "IndexedJoin" {
		t.Errorf("identity: %q %q", e.Name(), e.String())
	}
}

func TestHashTableBuiltOncePerLeftSubTable(t *testing.T) {
	// a=4 lefts per component, b=1 right: every left participates in one
	// edge, so builds must equal T exactly (one per left sub-table), and
	// the probe count equals n_e·c_S.
	grid := partition.D(16, 16, 4)
	p := partition.D(4, 8, 4)  // 8 left chunks... (4 per component over q)
	q := partition.D(8, 16, 4) // 4 right chunks
	cl := makeCluster(t, grid, p, q, 2, 2, 32<<20)
	res, err := New().Run(cl, req())
	if err != nil {
		t.Fatal(err)
	}
	T := grid.Cells()
	if res.Join.TuplesBuilt != T {
		t.Errorf("builds = %d, want T = %d", res.Join.TuplesBuilt, T)
	}
	ne := partition.NumEdges(grid, p, q)
	cs := q.Cells()
	if res.Join.TuplesProbed != ne*cs {
		t.Errorf("probes = %d, want n_e·c_S = %d", res.Join.TuplesProbed, ne*cs)
	}
}

func TestMemoryAssumptionNoEvictions(t *testing.T) {
	// Cache sized exactly to the paper's bound 2·c_R·RS_R + b·c_S·RS_S
	// must produce zero evictions and exactly one fetch per sub-table.
	grid := partition.D(16, 16, 8)
	p := partition.D(4, 4, 8) // left nested in right: a=4, b=1
	q := partition.D(8, 8, 8)
	cR, cS := p.Cells(), q.Cells()
	b := partition.RightPerComponent(p, q)
	cacheBytes := CacheBytesFor(cR, 16, b, cS, 16)
	cl := makeCluster(t, grid, p, q, 2, 2, cacheBytes)
	res, err := New().Run(cl, req())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's guarantee is that no sub-table is evicted *while still
	// required*; the observable consequence is that every sub-table is
	// fetched exactly once: misses = total sub-tables.
	subTables := grid.Cells()/cR + grid.Cells()/cS
	if res.Cache.Misses != subTables {
		t.Errorf("misses = %d, want %d (one fetch per sub-table)", res.Cache.Misses, subTables)
	}
	wantBytes := grid.Cells() * 32
	if res.Traffic.NetBytesToCompute != wantBytes {
		t.Errorf("net bytes = %d, want %d", res.Traffic.NetBytesToCompute, wantBytes)
	}
}

func TestComponentsBalancedAcrossJoiners(t *testing.T) {
	// 32 identical components over 4 joiners: per-joiner probe work must
	// be exactly equal (the paper's "same amount of work" guarantee).
	grid := partition.D(16, 16, 8)
	q := partition.D(4, 4, 4)
	cl := makeCluster(t, grid, q, q, 2, 4, 32<<20)
	res, err := New().Run(cl, req())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != grid.Cells() {
		t.Fatalf("tuples = %d", res.Tuples)
	}
	// With equal components, per-joiner share of fetches is equal:
	// misses must be identical on every node. (Aggregate check: total
	// misses divisible by nj.)
	if res.Cache.Misses%4 != 0 {
		t.Errorf("misses %d not evenly divisible across 4 joiners", res.Cache.Misses)
	}
}

func TestCollectProducesAllJoinerOutputs(t *testing.T) {
	grid := partition.D(8, 8, 4)
	q := partition.D(4, 4, 4)
	cl := makeCluster(t, grid, q, q, 2, 3, 32<<20)
	_, batches, err := enginetest.Run(New(), cl, req())
	if err != nil {
		t.Fatal(err)
	}
	joiners := map[tuple.ID]bool{}
	total := 0
	for _, st := range batches {
		joiners[st.ID] = true
		total += st.NumRows()
	}
	if len(joiners) != 3 {
		t.Fatalf("collected output from %d joiners, want 3", len(joiners))
	}
	if int64(total) != grid.Cells() {
		t.Errorf("collected rows = %d, want %d", total, grid.Cells())
	}
}

func TestMoreJoinersThanComponents(t *testing.T) {
	// 4 components, 8 joiners: the idle joiners must not break anything.
	grid := partition.D(8, 8, 4)
	q := partition.D(4, 4, 4)
	cl := makeCluster(t, grid, q, q, 1, 8, 32<<20)
	res, err := New().Run(cl, req())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != grid.Cells() {
		t.Errorf("tuples = %d", res.Tuples)
	}
}

func TestCacheBytesFor(t *testing.T) {
	// 2·c_R·RS_R + b·c_S·RS_S.
	if got := CacheBytesFor(100, 16, 3, 50, 8); got != 2*100*16+3*50*8 {
		t.Errorf("CacheBytesFor = %d", got)
	}
}

func TestWorkFactorMultipliesCharges(t *testing.T) {
	grid := partition.D(8, 8, 4)
	q := partition.D(4, 4, 4)
	cl := makeCluster(t, grid, q, q, 1, 2, 32<<20)
	r := req()
	r.WorkFactor = 5
	res, err := New().Run(cl, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Join.TuplesBuilt != 5*grid.Cells() {
		t.Errorf("builds = %d, want %d", res.Join.TuplesBuilt, 5*grid.Cells())
	}
	if res.Tuples != grid.Cells() {
		t.Errorf("result changed under work factor: %d", res.Tuples)
	}
}

func TestModeledCPUChargedPerJoiner(t *testing.T) {
	// With a per-op CPU cost and 2 joiners, wall time must reflect the
	// per-joiner division, not the total: ops/joiner × cost.
	grid := partition.D(8, 8, 8)
	q := partition.D(4, 4, 4)
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: q, RightPart: q, StorageNodes: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const perOp = 50e-6
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 1, ComputeNodes: 4, CacheBytes: 32 << 20,
		CPUSecPerOp: perOp,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Run(cl, req())
	if err != nil {
		t.Fatal(err)
	}
	// Total ops = 2T (build + probe); per joiner = 2T/4.
	wantSec := float64(2*grid.Cells()) / 4 * perOp
	got := res.Elapsed.Seconds()
	if got < wantSec*0.9 || got > wantSec*1.6 {
		t.Errorf("elapsed %.3fs, want ≈ %.3fs (per-joiner CPU division)", got, wantSec)
	}
}

var _ = tuple.ID{} // keep import for potential extension

func TestOPASMatchesComponentAtBound(t *testing.T) {
	// With the memory assumption satisfied, the component schedule is
	// fetch-optimal; OPAS must match it (one fetch per sub-table).
	grid := partition.D(16, 16, 8)
	p := partition.D(4, 4, 8)
	q := partition.D(8, 8, 8)
	b := partition.RightPerComponent(p, q)
	cacheBytes := CacheBytesFor(p.Cells(), 16, b, q.Cells(), 16)
	cl := makeCluster(t, grid, p, q, 2, 2, cacheBytes)
	e := &Engine{Schedule: ScheduleOPAS}
	res, err := e.Run(cl, req())
	if err != nil {
		t.Fatal(err)
	}
	subTables := grid.Cells()/p.Cells() + grid.Cells()/q.Cells()
	if res.Cache.Misses != subTables {
		t.Errorf("OPAS misses = %d, want %d", res.Cache.Misses, subTables)
	}
	if res.Tuples != grid.Cells() {
		t.Errorf("tuples = %d", res.Tuples)
	}
}

func TestOPASBeatsComponentBelowBound(t *testing.T) {
	// Overlapping partitions (a=4 lefts, b=2 rights per component) with a
	// cache at half the memory bound: the component-lex order re-fetches,
	// OPAS reorders to reduce re-transfer volume.
	grid := partition.D(16, 16, 8)
	p := partition.D(2, 2, 4) // split in x, y
	q := partition.D(4, 4, 2) // split in z: overlaps, never nests
	need := CacheBytesFor(p.Cells(), 16, 2, q.Cells(), 16)
	cl := makeCluster(t, grid, p, q, 2, 2, need/2)

	runBytes := func(e *Engine) int64 {
		res, err := e.Run(cl, req())
		if err != nil {
			t.Fatal(err)
		}
		if res.Tuples != grid.Cells() {
			t.Fatalf("tuples = %d", res.Tuples)
		}
		return res.Traffic.NetBytesToCompute
	}
	component := runBytes(New())
	opas := runBytes(&Engine{Schedule: ScheduleOPAS})
	if opas > component {
		t.Errorf("OPAS moved %d bytes, component schedule %d — OPAS should not be worse", opas, component)
	}
	minBytes := grid.Cells() * 32
	t.Logf("minimum %d, OPAS %d, component %d", minBytes, opas, component)
}

func TestScheduleStrings(t *testing.T) {
	cases := map[Schedule]string{
		ScheduleComponent: "component",
		ScheduleGlobalLex: "global-lex",
		ScheduleRandom:    "random",
		ScheduleOPAS:      "opas",
		Schedule(99):      "Schedule(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
