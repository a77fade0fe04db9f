package planner

import (
	"fmt"
	"math/rand"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/fault"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// Wire-compression differential: every leg in this file runs the same
// query twice — once over the row-major fetch codec, once over the
// compressed columnar one — and requires the results to agree. The codec
// must be bit-invisible: encode → filter/project in the compressed domain
// → decode reproduces the row-major fetch byte for byte, under every
// format, engine, scheduling knob, and fault schedule.

// TestGoldenCorpusWireInvariant runs the whole golden SQL corpus with the
// wire codec on and off, over both chunk formats and both engines. Every
// run must match the oracle; under IJ the two codecs must also agree row
// for row.
func TestGoldenCorpusWireInvariant(t *testing.T) {
	for _, format := range []string{"rowmajor", "rle"} {
		for _, force := range []string{"ij", "gh"} {
			t.Run(format+"/"+force, func(t *testing.T) {
				ds, err := oilres.Generate(oilres.Config{
					Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
					StorageNodes: 2, Seed: 11, Format: format,
				})
				if err != nil {
					t.Fatal(err)
				}
				o := newOracle(t, ds, goldenViews...)
				plain := datasetExecutor(t, ds, 2, force, cluster.Config{})
				enc := datasetExecutor(t, ds, 2, force, cluster.Config{Wire: "colenc"})
				for _, q := range goldenCorpus {
					a := runOracle(t, o, plain, q, "rowmajor")
					b := runOracle(t, o, enc, q, "colenc")
					if a != nil && force == "ij" {
						sameOutput(t, q+" [rowmajor vs colenc]", a, b)
					}
				}
			})
		}
	}
}

// TestDifferentialWireRandom is the property-harness leg: random datasets
// (format randomized too), random queries, random prefetch/parallelism on
// the compressed side, under both engines — every run matches the oracle,
// and under IJ the decoded bytes match the row-major run exactly.
func TestDifferentialWireRandom(t *testing.T) {
	const queriesPerSeed = 5
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed * 5531))
			cfg := diffConfigs[r.Intn(len(diffConfigs))]
			cfg.StorageNodes = 2 + r.Intn(2)
			cfg.Seed = 1 + r.Int63n(1<<30)
			if r.Intn(2) == 0 {
				cfg.Format = "rle"
			}
			ds, err := oilres.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle(t, ds, goldenViews...)
			dims := [3]int{cfg.Grid.X, cfg.Grid.Y, cfg.Grid.Z}
			nj := 1 + r.Intn(3)
			for _, force := range []string{"ij", "gh"} {
				plain := datasetExecutor(t, ds, nj, force, cluster.Config{})
				enc := datasetExecutor(t, ds, nj, force, cluster.Config{Wire: "colenc"})
				for q := 0; q < queriesPerSeed; q++ {
					sql, _ := genDiffQuery(r, dims)
					base := runOracle(t, o, plain, sql, force+" rowmajor")
					pf, par := r.Intn(3), r.Intn(3)
					label := fmt.Sprintf("%s colenc prefetch=%d parallel=%d", force, pf, par)
					got := checkOracleSQL(t, o, sql, label, runDiffLeg(t, enc, sql, pf, par), nil)
					if force == "ij" {
						sameOutput(t, sql+" ["+label+" vs rowmajor]", base, got)
					}
				}
			}
		})
	}
}

// TestDifferentialWireUnderFaults gives both codecs the identical
// op-counted chaos schedule over a replicated dataset, per engine:
// retries, failovers and engine recoveries must stay invisible with the
// compressed form traveling the failover path.
func TestDifferentialWireUnderFaults(t *testing.T) {
	cfg := oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 3, Seed: 23, Format: "rle",
	}
	ds, err := oilres.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oilres.Replicate(ds.Catalog, ds.Stores, 2); err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, ds, goldenViews...)
	faults := map[string]string{
		"ij": "crash:storage-1:fetch:5,crash:compute-0:edge:3",
		"gh": "crash:storage-1:fetch:5,crash:compute-0:write:3",
	}
	newEx := func(t *testing.T, force, wire string) *Executor {
		inj, err := fault.Parse(faults[force])
		if err != nil {
			t.Fatal(err)
		}
		cc := chaosConfig(inj)
		cc.Wire = wire
		return datasetExecutor(t, ds, 2, force, cc)
	}
	r := rand.New(rand.NewSource(777))
	dims := [3]int{8, 8, 4}
	for q := 0; q < 4; q++ {
		sql, _ := genDiffQuery(r, dims)
		for _, force := range []string{"ij", "gh"} {
			a := runOracle(t, o, newEx(t, force, ""), sql, force+" faulted rowmajor")
			b := runOracle(t, o, newEx(t, force, "colenc"), sql, force+" faulted colenc")
			if force == "ij" {
				sameOutput(t, sql+" [faulted rowmajor vs colenc]", a, b)
			}
		}
	}
}
