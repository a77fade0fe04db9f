package plan

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"sciview/internal/tuple"
)

var testSchema = tuple.NewSchema(tuple.Attr{Name: "v", Kind: tuple.Measure})

func testBatch(part int32, vals ...float32) *tuple.SubTable {
	st := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: part}, testSchema, len(vals))
	for _, v := range vals {
		st.AppendRow(v)
	}
	return st
}

// drainReorder pulls until EOF and flattens the released values.
func drainReorder(t *testing.T, r *reorder) []float32 {
	t.Helper()
	var out []float32
	for {
		st, err := r.next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < st.NumRows(); i++ {
			out = append(out, st.Value(i, 0))
		}
	}
}

func wantValues(t *testing.T, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("values = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}
}

// TestReorderStreamingOrder: batches emitted out of part order are
// released strictly in part order, in emission order within a part.
func TestReorderStreamingOrder(t *testing.T) {
	r := newReorder(3, false)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.Emit(1, testBatch(1, 3)))
	must(r.Emit(0, testBatch(0, 1)))
	must(r.Emit(2, testBatch(2, 5)))
	must(r.Emit(0, testBatch(0, 2)))
	must(r.Emit(1, testBatch(1, 4)))
	for p := 0; p < 3; p++ {
		r.Done(p)
	}
	r.finish(nil)
	wantValues(t, drainReorder(t, r), []float32{1, 2, 3, 4, 5})
}

// TestReorderStreamsHeadBeforeDone: in streaming mode the head part's
// batches are consumable immediately, before the part completes.
func TestReorderStreamsHeadBeforeDone(t *testing.T) {
	r := newReorder(2, false)
	if err := r.Emit(0, testBatch(0, 7)); err != nil {
		t.Fatal(err)
	}
	st, err := r.next()
	if err != nil {
		t.Fatal(err)
	}
	if st.Value(0, 0) != 7 {
		t.Fatalf("value = %v, want 7", st.Value(0, 0))
	}
}

// TestReorderBoundedBuffer: a producer for a not-yet-drained part blocks
// once its buffer is full, and close() aborts it with errSinkClosed.
func TestReorderBoundedBuffer(t *testing.T) {
	r := newReorder(2, false)
	for i := 0; i < maxBufferedBatches; i++ {
		if err := r.Emit(1, testBatch(1, float32(i))); err != nil {
			t.Fatal(err)
		}
	}
	emitted := make(chan error, 1)
	go func() { emitted <- r.Emit(1, testBatch(1, 99)) }()
	select {
	case err := <-emitted:
		t.Fatalf("overfull Emit returned early (%v), want blocked", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.close()
	if err := <-emitted; !errors.Is(err, errSinkClosed) {
		t.Fatalf("Emit after close = %v, want errSinkClosed", err)
	}
}

// TestReorderCommittedReplay: in commit-on-Done mode a failed attempt's
// Discard makes its batches invisible; only the final attempt's output is
// released, still in part order.
func TestReorderCommittedReplay(t *testing.T) {
	r := newReorder(2, true)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.Emit(0, testBatch(0, 8)))
	must(r.Emit(0, testBatch(0, 9)))
	r.Discard(0) // the attempt failed; its output must vanish
	must(r.Emit(1, testBatch(1, 2)))
	r.Done(1)
	must(r.Emit(0, testBatch(0, 1)))
	r.Done(0)
	r.finish(nil)
	wantValues(t, drainReorder(t, r), []float32{1, 2})
	if r.peak() <= 0 {
		t.Error("peak bytes not tracked")
	}
}

// TestReorderRunError: a run failure preempts pending batches — the
// consumer sees the error.
func TestReorderRunError(t *testing.T) {
	r := newReorder(1, false)
	if err := r.Emit(0, testBatch(0, 1)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	r.finish(boom)
	if _, err := r.next(); !errors.Is(err, boom) {
		t.Fatalf("next = %v, want boom", err)
	}
}

// stubOp feeds canned batches to an operator under test.
type stubOp struct {
	opstat
	batches []*tuple.SubTable
	i       int
	closed  bool
}

func (s *stubOp) Open(ctx context.Context) error { return nil }
func (s *stubOp) Close() error                   { s.closed = true; return nil }
func (s *stubOp) Schema() tuple.Schema           { return testSchema }
func (s *stubOp) Next() (*tuple.SubTable, error) {
	if s.i >= len(s.batches) {
		return nil, io.EOF
	}
	st := s.batches[s.i]
	s.i++
	return st, nil
}

// TestLimitOpStopsPulling: once satisfied mid-batch, the limit truncates,
// returns EOF and never pulls the remaining batches.
func TestLimitOpStopsPulling(t *testing.T) {
	child := &stubOp{batches: []*tuple.SubTable{
		testBatch(0, 1, 2, 3), testBatch(0, 4, 5, 6), testBatch(0, 7, 8, 9),
	}}
	lim := &limitOp{node: &LimitNode{N: 4}, remaining: 4, child: child}
	if err := lim.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got []float32
	for {
		st, err := lim.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < st.NumRows(); i++ {
			got = append(got, st.Value(i, 0))
		}
	}
	wantValues(t, got, []float32{1, 2, 3, 4})
	if child.i != 2 {
		t.Errorf("child pulled %d batches, want 2 (third must stay unpulled)", child.i)
	}
	if err := lim.Close(); err != nil {
		t.Fatal(err)
	}
	if !child.closed {
		t.Error("Close did not propagate")
	}
	if st := lim.Stat(); st.Rows != 4 || st.Batches != 2 {
		t.Errorf("stat = %+v", st)
	}
}

// TestLimitZero: LIMIT 0 yields EOF without touching the child.
func TestLimitZero(t *testing.T) {
	child := &stubOp{batches: []*tuple.SubTable{testBatch(0, 1)}}
	lim := &limitOp{node: &LimitNode{N: 0}, remaining: 0, child: child}
	if _, err := lim.Next(); err != io.EOF {
		t.Fatalf("Next = %v, want EOF", err)
	}
	if child.i != 0 {
		t.Errorf("child pulled %d batches, want 0", child.i)
	}
}
