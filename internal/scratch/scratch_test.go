package scratch

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"sciview/internal/simio"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

func testManager() (*Manager, *simio.MemStore) {
	store := simio.NewMemStore()
	return NewManager(simio.NewDisk(store, 0, 0), "t", "test", nil), store
}

// testManagerRec is testManager with a recorder attached, for tests of
// the spill accounting.
func testManagerRec() (*Manager, *trace.Recorder) {
	rec := trace.New().Child()
	return NewManager(simio.NewDisk(simio.NewMemStore(), 0, 0), "t", "test", rec), rec
}

func TestCreateAndFileNaming(t *testing.T) {
	m, _ := testManager()
	a := m.Create("run")
	b := m.Create("run")
	if a.Name() == b.Name() {
		t.Errorf("Create returned duplicate names: %q", a.Name())
	}
	if !strings.HasPrefix(a.Name(), "t/") {
		t.Errorf("name %q lacks the manager prefix", a.Name())
	}
	// File is the deterministic get-or-create variant.
	c := m.File("bucket")
	if c != m.File("bucket") {
		t.Error("File returned distinct handles for the same label")
	}
	if c.Name() != "t/bucket" {
		t.Errorf("File name = %q, want t/bucket", c.Name())
	}
	if m.Files() != 3 {
		t.Errorf("Files() = %d, want 3", m.Files())
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	m, rec := testManagerRec()
	f := m.Create("r")
	payload := []byte("hello scratch world")
	if err := f.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(payload); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), payload...), payload...)
	if !bytes.Equal(got, want) {
		t.Errorf("ReadAll = %q, want %q", got, want)
	}
	written, read := rec.Total(trace.KindSpill).Bytes, rec.Total(trace.KindBucketRead).Bytes
	if written != int64(len(want)) || read != int64(len(want)) {
		t.Errorf("totals: written=%d read=%d, want %d each", written, read, len(want))
	}
}

func TestReaderChunks(t *testing.T) {
	m, _ := testManager()
	f := m.Create("big")
	// Three read chunks plus a tail.
	data := make([]byte, 3*readChunk+123)
	for i := range data {
		data[i] = byte(i)
	}
	if err := f.Append(data); err != nil {
		t.Fatal(err)
	}
	rd, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	if rd.Remaining() != int64(len(data)) {
		t.Errorf("Remaining = %d, want %d", rd.Remaining(), len(data))
	}
	got, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("streamed bytes differ from appended bytes")
	}
	if rd.Remaining() != 0 {
		t.Errorf("Remaining after EOF = %d", rd.Remaining())
	}
}

// TestTruncationDetected is the no-silent-truncation property: a file
// whose stored size disagrees with the appended size (someone truncated
// or half-wrote it behind the manager's back) fails the read loudly.
func TestTruncationDetected(t *testing.T) {
	m, store := testManager()
	f := m.Create("r")
	if err := f.Append([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(f.Name(), []byte("0123")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAll(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("ReadAll on a truncated file: err = %v, want truncation error", err)
	}
	if _, err := f.Open(); err == nil {
		t.Error("Open on a truncated file succeeded")
	}
}

// TestBrokenAfterWriteError: a failed append marks the file broken; the
// store may hold a partial record, so later appends and reads must fail
// rather than serve it.
func TestBrokenAfterWriteError(t *testing.T) {
	store := simio.NewMemStore()
	disk := simio.NewDisk(store, 0, 0)
	fail := false
	disk.Fault = func(op string) error {
		if op == "write" && fail {
			return &simio.PartialWriteError{Rule: "test"}
		}
		return nil
	}
	m := NewManager(disk, "t", "test", nil)
	f := m.Create("r")
	if err := f.Append([]byte("intact-record")); err != nil {
		t.Fatal(err)
	}
	fail = true
	err := f.Append([]byte("doomed-record"))
	var pw *simio.PartialWriteError
	if err == nil || !errors.As(err, &pw) {
		t.Fatalf("faulted append: err = %v, want PartialWriteError", err)
	}
	fail = false
	if err := f.Append([]byte("more")); err == nil {
		t.Error("append after a write error succeeded on a broken file")
	}
	if _, err := f.ReadAll(); err == nil {
		t.Error("read after a write error served a possibly-partial file")
	}
}

func TestReleaseAndReleaseAll(t *testing.T) {
	m, store := testManager()
	a := m.Create("a")
	b := m.Create("b")
	for _, f := range []*File{a, b} {
		if err := f.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	m.Release(a)
	if names, _ := store.List(); len(names) != 1 {
		t.Errorf("after Release: store holds %v", names)
	}
	if live := m.Live(); len(live) != 1 || live[0] != b.Name() {
		t.Errorf("Live = %v, want [%s]", live, b.Name())
	}
	m.ReleaseAll()
	m.ReleaseAll() // idempotent
	if names, _ := store.List(); len(names) != 0 {
		t.Errorf("after ReleaseAll: store holds %v", names)
	}
	if live := m.Live(); len(live) != 0 {
		t.Errorf("Live after ReleaseAll = %v", live)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "z", Kind: tuple.Coord},
	)
	st := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: 2}, schema, 0)
	for i := 0; i < 17; i++ {
		st.AppendRow(float32(i), float32(i)*0.5, -float32(i))
	}
	data := EncodeRows(st)
	got, err := DecodeRows(schema, data, tuple.ID{Table: -1, Chunk: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != st.NumRows() {
		t.Fatalf("decoded %d rows, want %d", got.NumRows(), st.NumRows())
	}
	for r := 0; r < st.NumRows(); r++ {
		for c := 0; c < schema.NumAttrs(); c++ {
			if got.Value(r, c) != st.Value(r, c) {
				t.Fatalf("row %d col %d = %g, want %g", r, c, got.Value(r, c), st.Value(r, c))
			}
		}
	}
	// A non-integral record count is corruption, not a short batch.
	if _, err := DecodeRows(schema, data[:len(data)-3], tuple.ID{}); err == nil {
		t.Error("DecodeRows accepted a partial record")
	}
}
