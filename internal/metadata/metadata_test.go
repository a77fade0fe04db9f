package metadata

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/tuple"
)

func schema3d() tuple.Schema {
	return tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "z", Kind: tuple.Coord},
		tuple.Attr{Name: "oilp", Kind: tuple.Measure},
	)
}

// addGridChunks registers an nx×ny×nz grid of unit-cube chunks with oilp
// bounds derived from position, returning the catalog and table id.
func addGridChunks(t testing.TB, nx, ny, nz int) (*Catalog, int32) {
	t.Helper()
	c := NewCatalog()
	def, err := c.CreateTable("T1", schema3d())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				d := &chunk.Desc{
					Object: "data",
					Format: "rowmajor",
					Attrs:  schema3d().Attrs,
					Rows:   8,
					Bounds: bbox.New(
						[]float64{float64(i * 10), float64(j * 10), float64(k * 10), float64(i) / 10},
						[]float64{float64(i*10) + 9, float64(j*10) + 9, float64(k*10) + 9, float64(i)/10 + 0.05},
					),
				}
				if _, err := c.AddChunk(def.ID, d); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return c, def.ID
}

func TestCreateTable(t *testing.T) {
	c := NewCatalog()
	def, err := c.CreateTable("T1", schema3d())
	if err != nil {
		t.Fatal(err)
	}
	if def.ID != 0 {
		t.Errorf("first table id = %d", def.ID)
	}
	if _, err := c.CreateTable("T1", schema3d()); err == nil {
		t.Error("duplicate table should fail")
	}
	noCoord := tuple.NewSchema(tuple.Attr{Name: "v", Kind: tuple.Measure})
	if _, err := c.CreateTable("T2", noCoord); err == nil {
		t.Error("table without coordinates should fail")
	}
	got, err := c.Table("T1")
	if err != nil || got.ID != def.ID {
		t.Errorf("Table lookup: %v %v", got, err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := c.TableByID(99); err == nil {
		t.Error("unknown table id should fail")
	}
	if len(c.Tables()) != 1 {
		t.Error("Tables() wrong")
	}
}

func TestAddChunkAssignsIDs(t *testing.T) {
	c, tid := addGridChunks(t, 2, 1, 1)
	ds := c.Chunks(tid)
	if len(ds) != 2 || ds[0].Chunk != 0 || ds[1].Chunk != 1 {
		t.Fatalf("chunk ids wrong: %v", ds)
	}
	d, err := c.Chunk(tid, 1)
	if err != nil || d.Chunk != 1 {
		t.Errorf("Chunk(1): %v %v", d, err)
	}
	if _, err := c.Chunk(tid, 5); err == nil {
		t.Error("out-of-range chunk should fail")
	}
	bad := &chunk.Desc{Bounds: bbox.Universe(2)}
	if _, err := c.AddChunk(tid, bad); err == nil {
		t.Error("wrong-dim bounds should fail")
	}
	if _, err := c.AddChunk(42, bad); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestChunksInRangeCoords(t *testing.T) {
	c, _ := addGridChunks(t, 4, 4, 4) // 64 chunks, cells 10 wide
	// Paper example: SELECT * FROM T1 WHERE x in [0,256], y in [0,512] —
	// here: x in [0,15] covers i=0,1; y in [5,9] covers j=0 only; z free.
	got, err := c.ChunksInRange("T1", Range{
		Attrs: []string{"x", "y"},
		Lo:    []float64{0, 5},
		Hi:    []float64{15, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*1*4 {
		t.Fatalf("got %d chunks, want 8", len(got))
	}
	for _, d := range got {
		if d.Bounds.Lo[0] > 15 || d.Bounds.Hi[1] < 5 {
			t.Errorf("chunk %v outside range", d.ID())
		}
	}
	// Chunk order must be deterministic (ascending id).
	for i := 1; i < len(got); i++ {
		if got[i].Chunk <= got[i-1].Chunk {
			t.Fatal("results not sorted by chunk id")
		}
	}
}

func TestChunksInRangeScalarFilter(t *testing.T) {
	c, _ := addGridChunks(t, 4, 1, 1) // oilp bounds: [i/10, i/10+0.05]
	got, err := c.ChunksInRange("T1", Range{
		Attrs: []string{"oilp"},
		Lo:    []float64{0.18},
		Hi:    []float64{0.21},
	})
	if err != nil {
		t.Fatal(err)
	}
	// i=2 has oilp [0.2,0.25] — overlaps [0.18,0.21]. i=1: [0.1,0.15] no.
	if len(got) != 1 || got[0].Bounds.Lo[3] != 0.2 {
		t.Fatalf("scalar filter returned %d chunks", len(got))
	}
}

func TestChunksInRangeErrors(t *testing.T) {
	c, _ := addGridChunks(t, 1, 1, 1)
	if _, err := c.ChunksInRange("nope", Range{}); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := c.ChunksInRange("T1", Range{Attrs: []string{"w"}, Lo: []float64{0}, Hi: []float64{1}}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := c.ChunksInRange("T1", Range{Attrs: []string{"x"}, Lo: []float64{1}, Hi: []float64{0}}); err == nil {
		t.Error("inverted interval should fail")
	}
	if _, err := c.ChunksInRange("T1", Range{Attrs: []string{"x"}, Lo: []float64{1, 2}, Hi: []float64{3}}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestEmptyRangeReturnsAll(t *testing.T) {
	c, _ := addGridChunks(t, 3, 3, 1)
	got, err := c.ChunksInRange("T1", Range{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Errorf("empty range returned %d chunks, want 9", len(got))
	}
}

func TestInfiniteBoundsChunk(t *testing.T) {
	// A chunk missing scalar bounds (±Inf) must still be indexed and found.
	c := NewCatalog()
	def, _ := c.CreateTable("T1", schema3d())
	d := &chunk.Desc{
		Attrs: schema3d().Attrs,
		Bounds: bbox.New(
			[]float64{0, 0, 0, math.Inf(-1)},
			[]float64{9, 9, 9, math.Inf(1)},
		),
	}
	if _, err := c.AddChunk(def.ID, d); err != nil {
		t.Fatal(err)
	}
	got, err := c.ChunksInRange("T1", Range{Attrs: []string{"x"}, Lo: []float64{5}, Hi: []float64{6}})
	if err != nil || len(got) != 1 {
		t.Fatalf("infinite-bounds chunk not found: %v %d", err, len(got))
	}
	got, err = c.ChunksInRange("T1", Range{Attrs: []string{"oilp"}, Lo: []float64{0.5}, Hi: []float64{0.6}})
	if err != nil || len(got) != 1 {
		t.Fatalf("scalar query against infinite bounds: %v %d", err, len(got))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c, tid := addGridChunks(t, 3, 2, 2)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := NewCatalog()
	if err := c2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if len(c2.Chunks(tid)) != 12 {
		t.Fatalf("loaded %d chunks", len(c2.Chunks(tid)))
	}
	def, err := c2.Table("T1")
	if err != nil || !def.Schema.Equal(schema3d()) {
		t.Fatalf("loaded table wrong: %v %v", def, err)
	}
	// R-tree must be rebuilt: range query works.
	got, err := c2.ChunksInRange("T1", Range{Attrs: []string{"x"}, Lo: []float64{0}, Hi: []float64{5}})
	if err != nil || len(got) != 4 {
		t.Fatalf("post-load range query: %v, %d chunks", err, len(got))
	}
	// New tables get fresh ids after load.
	def2, err := c2.CreateTable("T9", schema3d())
	if err != nil || def2.ID != 1 {
		t.Fatalf("nextTable not restored: %v %v", def2, err)
	}
	if err := c2.Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("loading garbage should fail")
	}

	// A descriptor whose bounds do not span its table's schema is rejected
	// before anything is installed (the R-tree rebuild would index past
	// the truncated box).
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(saveImage(t, c))).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	d := snap.Chunks[tid][3]
	d.Bounds = bbox.Box{Lo: d.Bounds.Lo[:1], Hi: d.Bounds.Hi[:1]}
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(snap); err != nil {
		t.Fatal(err)
	}
	before := len(c2.Chunks(tid))
	if err := c2.Load(&bad); err == nil {
		t.Error("loading an image with truncated chunk bounds should fail")
	}
	if got := len(c2.Chunks(tid)); got != before {
		t.Errorf("rejected image changed the catalog: %d chunks, had %d", got, before)
	}
}

func saveImage(t testing.TB, c *Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkChunksInRange(b *testing.B) {
	c := NewCatalog()
	def, _ := c.CreateTable("T1", schema3d())
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			for k := 0; k < 8; k++ {
				d := &chunk.Desc{
					Attrs: schema3d().Attrs,
					Bounds: bbox.New(
						[]float64{float64(i * 8), float64(j * 8), float64(k * 8), 0},
						[]float64{float64(i*8) + 7, float64(j*8) + 7, float64(k*8) + 7, 1},
					),
				}
				if _, err := c.AddChunk(def.ID, d); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	r := Range{Attrs: []string{"x", "y"}, Lo: []float64{32, 32}, Hi: []float64{96, 96}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := c.ChunksInRange("T1", r)
		if err != nil || len(got) == 0 {
			b.Fatalf("%v %d", err, len(got))
		}
	}
}
