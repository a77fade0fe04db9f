package engine_test

import (
	"strings"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/partition"
)

// Failure injection: storage-level faults must surface as errors from both
// engines — never panics, hangs, or silently wrong results.

func TestMissingObjectFailsBothEngines(t *testing.T) {
	ds, cl := genCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 2, 2)
	// Delete one data object out from under the catalog.
	names, err := ds.Stores[0].List()
	if err != nil || len(names) == 0 {
		t.Fatalf("listing store: %v", err)
	}
	if err := ds.Stores[0].Delete(names[0]); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines() {
		_, err := e.Run(cl, fullJoinReq())
		if err == nil {
			t.Errorf("%s: missing object produced no error", e.Name())
			continue
		}
		if !strings.Contains(err.Error(), "not found") {
			t.Errorf("%s: unexpected error: %v", e.Name(), err)
		}
	}
}

func TestTruncatedChunkFailsBothEngines(t *testing.T) {
	ds, cl := genCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 2, 2)
	// Truncate node 1's data file: ranged reads past the end must fail.
	names, _ := ds.Stores[1].List()
	for _, name := range names {
		data, err := ds.Stores[1].ReadRange(name, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Stores[1].Put(name, data[:len(data)/2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range engines() {
		if _, err := e.Run(cl, fullJoinReq()); err == nil {
			t.Errorf("%s: truncated chunk produced no error", e.Name())
		}
	}
}

func TestCorruptedChunkBytesFailExtraction(t *testing.T) {
	// Overwrite a chunk with garbage whose length is not a multiple of the
	// record size: the rowmajor extractor must reject it.
	ds, cl := genCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 1, 1)
	names, _ := ds.Stores[0].List()
	var victim string
	for _, n := range names {
		victim = n
		break
	}
	if err := ds.Stores[0].Put(victim, make([]byte, 13)); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines() {
		if _, err := e.Run(cl, fullJoinReq()); err == nil {
			t.Errorf("%s: corrupted chunk produced no error", e.Name())
		}
	}
}

func TestErrorsOverTCPCluster(t *testing.T) {
	ds, _ := genCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 2, 2)
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 16 << 20, UseTCP: true,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	names, _ := ds.Stores[0].List()
	if err := ds.Stores[0].Delete(names[0]); err != nil {
		t.Fatal(err)
	}
	// IJ fetches over TCP; the remote BDS error must cross the wire.
	for _, e := range engines() {
		if _, err := e.Run(cl, fullJoinReq()); err == nil {
			t.Errorf("%s: remote failure produced no error", e.Name())
		}
	}
}
