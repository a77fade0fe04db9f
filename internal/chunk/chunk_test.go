package chunk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sciview/internal/tuple"
)

func testSchema() tuple.Schema {
	return tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "oilp", Kind: tuple.Measure},
	)
}

func testTable(rows int, seed int64) *tuple.SubTable {
	r := rand.New(rand.NewSource(seed))
	st := tuple.NewSubTable(tuple.ID{Table: 3, Chunk: 9}, testSchema(), rows)
	for i := 0; i < rows; i++ {
		st.AppendRow(float32(r.Intn(100)), float32(r.Intn(100)), r.Float32())
	}
	return st
}

func descFor(st *tuple.SubTable, format string) *Desc {
	return &Desc{
		Table:  st.ID.Table,
		Chunk:  st.ID.Chunk,
		Format: format,
		Attrs:  st.Schema.Attrs,
		Rows:   st.NumRows(),
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"rowmajor", "colmajor", "csv", "rle"} {
		e, err := Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if e.Name() != name {
			t.Errorf("extractor name %q != %q", e.Name(), name)
		}
	}
	if _, err := Lookup("hdf5"); err == nil {
		t.Error("expected error for unregistered format")
	}
	fs := Formats()
	if len(fs) < 4 {
		t.Errorf("Formats() = %v", fs)
	}
}

func TestRoundTripAllFormats(t *testing.T) {
	st := testTable(57, 42)
	for _, format := range []string{"rowmajor", "colmajor", "csv", "rle"} {
		t.Run(format, func(t *testing.T) {
			e, err := Lookup(format)
			if err != nil {
				t.Fatal(err)
			}
			data, err := e.Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			d := descFor(st, format)
			d.Size = int64(len(data))
			got, err := Extract(d, data)
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != st.ID {
				t.Errorf("ID = %v, want %v", got.ID, st.ID)
			}
			if got.NumRows() != st.NumRows() {
				t.Fatalf("rows = %d, want %d", got.NumRows(), st.NumRows())
			}
			for r := 0; r < st.NumRows(); r++ {
				for c := 0; c < st.Schema.NumAttrs(); c++ {
					if got.Value(r, c) != st.Value(r, c) {
						t.Fatalf("(%d,%d) = %v, want %v", r, c, got.Value(r, c), st.Value(r, c))
					}
				}
			}
		})
	}
}

func TestBinaryFormatSizes(t *testing.T) {
	st := testTable(10, 1)
	for _, format := range []string{"rowmajor", "colmajor"} {
		e, _ := Lookup(format)
		data, err := e.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != st.Bytes() {
			t.Errorf("%s: %d bytes, want %d (raw layouts carry no framing)", format, len(data), st.Bytes())
		}
	}
}

func TestExtractErrors(t *testing.T) {
	st := testTable(4, 2)
	d := descFor(st, "rowmajor")
	if _, err := Extract(d, make([]byte, 13)); err == nil {
		t.Error("rowmajor should reject non-multiple-of-record-size data")
	}
	d.Format = "colmajor"
	if _, err := Extract(d, make([]byte, 13)); err == nil {
		t.Error("colmajor should reject non-multiple-of-record-size data")
	}
	d.Format = "unknown"
	if _, err := Extract(d, nil); err == nil {
		t.Error("unknown format should fail")
	}
	empty := &Desc{Format: "rowmajor"}
	if _, err := Extract(empty, nil); err == nil {
		t.Error("zero-attribute chunk should fail")
	}
}

func TestCSVErrors(t *testing.T) {
	d := descFor(testTable(1, 3), "csv")
	if _, err := Extract(d, []byte("1,2\n")); err == nil {
		t.Error("wrong field count should fail")
	}
	if _, err := Extract(d, []byte("1,2,zzz\n")); err == nil {
		t.Error("non-numeric field should fail")
	}
	// Blank lines and missing trailing newline are tolerated.
	got, err := Extract(d, []byte("1,2,3\n\n4,5,6"))
	if err != nil || got.NumRows() != 2 {
		t.Errorf("lenient parse failed: %v rows=%d", err, got.NumRows())
	}
}

func TestDescAccessors(t *testing.T) {
	st := testTable(1, 4)
	d := descFor(st, "csv")
	if d.ID() != (tuple.ID{Table: 3, Chunk: 9}) {
		t.Errorf("ID = %v", d.ID())
	}
	if !d.Schema().Equal(st.Schema) {
		t.Errorf("Schema = %v", d.Schema())
	}
}

func TestPropFormatsAgree(t *testing.T) {
	// All three layouts of the same sub-table must extract to identical
	// contents.
	f := func(seed int64) bool {
		rows := int(seed%64) + 1
		if rows < 0 {
			rows = -rows + 1
		}
		st := testTable(rows, seed)
		var decoded []*tuple.SubTable
		for _, format := range []string{"rowmajor", "colmajor", "csv", "rle"} {
			e, _ := Lookup(format)
			data, err := e.Encode(st)
			if err != nil {
				return false
			}
			got, err := Extract(descFor(st, format), data)
			if err != nil {
				return false
			}
			decoded = append(decoded, got)
		}
		for _, got := range decoded[1:] {
			if got.NumRows() != decoded[0].NumRows() {
				return false
			}
			for r := 0; r < got.NumRows(); r++ {
				for c := 0; c < got.Schema.NumAttrs(); c++ {
					if got.Value(r, c) != decoded[0].Value(r, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRLECompressesGridCoordinates(t *testing.T) {
	// A structured grid: z column is one long run, y repeats per row.
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "z", Kind: tuple.Coord},
	)
	st := tuple.NewSubTable(tuple.ID{}, schema, 0)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			st.AppendRow(float32(x), float32(y), 7)
		}
	}
	e, _ := Lookup("rle")
	data, err := e.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= st.Bytes() {
		t.Errorf("rle did not compress: %d vs %d raw bytes", len(data), st.Bytes())
	}
	got, err := e.Extract(descFor(st, "rle"), data)
	if err != nil || got.NumRows() != st.NumRows() {
		t.Fatalf("round trip: %v rows=%d", err, got.NumRows())
	}
}

func TestRLEErrors(t *testing.T) {
	st := testTable(8, 9)
	e, _ := Lookup("rle")
	data, _ := e.Encode(st)
	d := descFor(st, "rle")
	for _, cut := range []int{0, 3, len(data) / 2, len(data) - 1} {
		if _, err := e.Extract(d, data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := e.Extract(d, append(append([]byte{}, data...), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Zero-length run rejected.
	bad := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	one := &Desc{Format: "rle", Attrs: []tuple.Attr{{Name: "x", Kind: tuple.Coord}}}
	if _, err := e.Extract(one, bad); err == nil {
		t.Error("zero-length run accepted")
	}
	if _, err := e.Extract(&Desc{Format: "rle"}, nil); err == nil {
		t.Error("zero-attribute chunk accepted")
	}
	// One 8-byte run claiming 2^32-1 rows must be rejected before it is
	// expanded, with or without a row count on the descriptor.
	huge := []byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	if _, err := e.Extract(one, huge); err == nil {
		t.Error("run longer than the unsized cap accepted")
	}
	sized := &Desc{Format: "rle", Attrs: one.Attrs, Rows: 8}
	if _, err := e.Extract(sized, []byte{1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("run longer than the descriptor's row count accepted")
	}
}

func TestRLEDatasetEndToEnd(t *testing.T) {
	// The generator and BDS path work with the compressed format.
	// (Exercised via the oilres package elsewhere; here: direct encode of
	// a generated-like block with mixed runs.)
	st := testTable(64, 10)
	e, _ := Lookup("rle")
	data, err := e.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Extract(descFor(st, "rle"), data)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < st.NumRows(); r++ {
		for c := 0; c < st.Schema.NumAttrs(); c++ {
			if got.Value(r, c) != st.Value(r, c) {
				t.Fatalf("(%d,%d) differs", r, c)
			}
		}
	}
}
