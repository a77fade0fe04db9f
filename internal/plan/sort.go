package plan

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"sciview/internal/query"
	"sciview/internal/scratch"
	"sciview/internal/tuple"
)

// spillSeq namespaces plan-operator scratch prefixes, so concurrent
// queries sharing a compute node's scratch disk never collide.
var spillSeq atomic.Int64

// sortEmitRows is the external merge's output batch size.
const sortEmitRows = 4096

// sortOp is the blocking ORDER BY operator. In memory it absorbs the
// child's batches in arrival order and emits one fully-ordered batch via
// a stable sort.
//
// With a spill budget stamped (SortNode.SpillBudget > 0), absorption is
// bounded: whenever the buffer exceeds the budget it is stable-sorted
// and written to the scratch disk as one sorted run, each record
// carrying its global arrival index. The final merge compares
// (keys..., arrival index) — a strict total order whose restriction to
// the keys reproduces the stable sort exactly, regardless of where the
// run boundaries fell. The output is therefore byte-identical to the
// in-memory path at every budget; only the batch boundaries differ
// (bounded emission instead of one monolithic batch).
type sortOp struct {
	opstat
	node    *SortNode
	child   Operator
	emitted bool

	// External-mode state.
	mgr     *scratch.Manager
	merge   *runMerge
	outID   tuple.ID
	started bool
	peakAcc int64
}

func (o *sortOp) Schema() tuple.Schema { return o.node.Schema() }

func (o *sortOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *sortOp) Next() (*tuple.SubTable, error) {
	start := time.Now()
	defer o.timed(start)
	if !o.started {
		o.started = true
		if err := o.absorb(); err != nil {
			return nil, err
		}
	}
	if o.merge != nil {
		st, err := o.merge.nextBatch(sortEmitRows)
		if err != nil || st == nil {
			if err == nil {
				err = io.EOF
			}
			return nil, err
		}
		if b := o.peakAcc + int64(st.Bytes()); b > o.s.PeakBytes {
			o.s.PeakBytes = b
		}
		o.observe(st)
		return st, nil
	}
	return nil, io.EOF
}

// absorb drains the child. Within budget everything stays in one
// buffer, sorted and staged for single-batch emission; over budget the
// buffer spills as sorted runs and a merge is prepared.
func (o *sortOp) absorb() error {
	node := o.node
	schema := o.child.Schema()
	idxs := make([]int, len(node.Keys))
	for i, k := range node.Keys {
		idxs[i] = schema.Index(k.Attr) // validated at NewSort
	}
	spilling := node.SpillBudget > 0 && node.SpillDisk != nil

	acc := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: -1}, schema, 0)
	var runs []sortRun
	var arrivals int64 // global arrival index of acc's first row
	first := true
	for {
		st, err := o.child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if first && st.NumRows() > 0 {
			o.outID = st.ID
			acc.ID = st.ID
			first = false
		}
		if err := acc.AppendAll(st); err != nil {
			return err
		}
		if b := int64(acc.Bytes()); b > o.peakAcc {
			o.peakAcc = b
		}
		if spilling && int64(acc.Bytes()) > node.SpillBudget && acc.NumRows() > 0 {
			if o.mgr == nil {
				o.mgr = scratch.NewManager(node.SpillDisk,
					fmt.Sprintf("plan/sort/r%d", spillSeq.Add(1)),
					node.SpillOwner, node.SpillTrace, nil)
			}
			run, err := spillSortedRun(o.mgr, acc, node.Keys, idxs, arrivals, len(runs))
			if err != nil {
				return err
			}
			runs = append(runs, run)
			arrivals += int64(acc.NumRows())
			acc = tuple.NewSubTable(o.outID, schema, 0)
		}
	}

	order := sortOrder(acc, node.Keys, idxs)
	if len(runs) == 0 {
		// Everything fit: the historical single-batch path, byte for byte.
		out := tuple.NewSubTable(acc.ID, acc.Schema, acc.NumRows())
		row := tuple.GetRow(acc.Schema.NumAttrs())
		defer tuple.PutRow(row)
		for _, r := range order {
			out.AppendRow(acc.Row(r, row)...)
		}
		o.s.PeakBytes = int64(acc.Bytes()) + int64(out.Bytes())
		o.merge = &runMerge{single: out}
		return nil
	}
	// External merge: the spilled runs plus the in-memory tail.
	m := &runMerge{schema: schema, keys: node.Keys, idxs: idxs, id: o.outID}
	for _, run := range runs {
		rd, err := run.f.Open()
		if err != nil {
			return err
		}
		m.curs = append(m.curs, &runCursor{
			rd: rd, base: run.base,
			buf: make([]byte, schema.NumAttrs()*4+4),
			row: make([]float32, schema.NumAttrs()),
		})
	}
	if acc.NumRows() > 0 {
		m.curs = append(m.curs, &runCursor{
			acc: acc, ord: order, base: arrivals,
			row: make([]float32, schema.NumAttrs()),
		})
	}
	o.merge = m
	return m.start()
}

func (o *sortOp) Close() error {
	if o.mgr != nil {
		o.s.SpillBytes = o.mgr.BytesWritten()
		o.s.SpillReadBytes = o.mgr.BytesRead()
		o.s.SpillParts = o.mgr.Files()
		o.mgr.ReleaseAll()
	}
	return o.child.Close()
}

// sortOrder returns the stable sort permutation of acc's rows by keys.
func sortOrder(acc *tuple.SubTable, keys []query.OrderKey, idxs []int) []int {
	order := make([]int, acc.NumRows())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := order[a], order[b]
		for i, idx := range idxs {
			va, vb := acc.Value(ra, idx), acc.Value(rb, idx)
			if va == vb {
				continue
			}
			if keys[i].Desc {
				return va > vb
			}
			return va < vb
		}
		return false
	})
	return order
}

// sortRun is one spilled sorted run. Records are the row's float32
// columns followed by a uint32 within-run arrival offset; base + offset
// is the row's global arrival index, the stable sort's tiebreaker.
type sortRun struct {
	f    *scratch.File
	base int64
}

// spillSortedRun stable-sorts the buffer and writes it as one run.
func spillSortedRun(mgr *scratch.Manager, acc *tuple.SubTable, keys []query.OrderKey, idxs []int, base int64, n int) (sortRun, error) {
	order := sortOrder(acc, keys, idxs)
	na := acc.Schema.NumAttrs()
	recSize := na*4 + 4
	size := acc.NumRows() * recSize
	buf := tuple.GetBuf(size)[:size]
	off := 0
	for _, r := range order {
		for c := 0; c < na; c++ {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(acc.Value(r, c)))
			off += 4
		}
		binary.LittleEndian.PutUint32(buf[off:], uint32(r))
		off += 4
	}
	f := mgr.Create(fmt.Sprintf("run%d", n))
	err := f.AppendRows(buf, int64(acc.NumRows()))
	tuple.PutBuf(buf)
	if err != nil {
		return sortRun{}, err
	}
	return sortRun{f: f, base: base}, nil
}

// runCursor walks one sorted run: a scratch file (rd != nil) or the
// in-memory tail buffer (acc != nil). row/arr hold the current record.
type runCursor struct {
	// Disk run.
	rd  *scratch.Reader
	buf []byte
	// In-memory tail.
	acc *tuple.SubTable
	ord []int
	pos int

	base int64
	row  []float32
	arr  int64
	ok   bool
}

// advance loads the cursor's next record; ok=false at run end.
func (c *runCursor) advance() error {
	if c.acc != nil {
		if c.pos >= len(c.ord) {
			c.ok = false
			return nil
		}
		r := c.ord[c.pos]
		c.pos++
		for i := range c.row {
			c.row[i] = c.acc.Value(r, i)
		}
		c.arr = c.base + int64(r)
		c.ok = true
		return nil
	}
	if _, err := io.ReadFull(c.rd, c.buf); err != nil {
		if err == io.EOF {
			c.ok = false
			return nil
		}
		return fmt.Errorf("plan: sort run read: %w", err)
	}
	off := 0
	for i := range c.row {
		c.row[i] = math.Float32frombits(binary.LittleEndian.Uint32(c.buf[off:]))
		off += 4
	}
	c.arr = c.base + int64(binary.LittleEndian.Uint32(c.buf[off:]))
	c.ok = true
	return nil
}

// runMerge merges sorted runs with a loser tree, comparing
// (keys..., global arrival index) — a strict total order equal to the
// stable sort's. single short-circuits the in-memory case.
type runMerge struct {
	single *tuple.SubTable

	schema tuple.Schema
	keys   []query.OrderKey
	idxs   []int
	id     tuple.ID
	curs   []*runCursor
	lt     *loserTree
	done   bool
}

// before is the merge comparator over two loaded cursors.
func (m *runMerge) before(a, b *runCursor) bool {
	for i, idx := range m.idxs {
		va, vb := a.row[idx], b.row[idx]
		if va == vb {
			continue
		}
		if m.keys[i].Desc {
			return va > vb
		}
		return va < vb
	}
	return a.arr < b.arr
}

// start primes every cursor and builds the loser tree.
func (m *runMerge) start() error {
	for _, c := range m.curs {
		if err := c.advance(); err != nil {
			return err
		}
	}
	m.lt = newLoserTree(len(m.curs), func(a, b int) bool {
		ca, cb := m.curs[a], m.curs[b]
		if !ca.ok {
			return false
		}
		if !cb.ok {
			return true
		}
		return m.before(ca, cb)
	})
	return nil
}

// nextBatch emits up to n merged rows; nil at end of stream.
func (m *runMerge) nextBatch(n int) (*tuple.SubTable, error) {
	if m.single != nil {
		st := m.single
		m.single = nil
		m.done = true
		return st, nil
	}
	if m.done || m.lt == nil {
		return nil, nil
	}
	out := tuple.NewSubTable(m.id, m.schema, n)
	for out.NumRows() < n {
		w := m.lt.winner
		if w < 0 || !m.curs[w].ok {
			m.done = true
			break
		}
		out.AppendRow(m.curs[w].row...)
		if err := m.curs[w].advance(); err != nil {
			return nil, err
		}
		m.lt.fix()
	}
	if out.NumRows() == 0 {
		return nil, nil
	}
	return out, nil
}

// loserTree is a k-way tournament tree over cursor indices: winner is
// the index of the smallest loaded cursor, internal nodes remember the
// loser of each match so replacing the winner replays one root path
// instead of k-1 comparisons. beats(a, b) reports cursor a ordering
// strictly before cursor b (exhausted cursors lose to everything).
type loserTree struct {
	m      int // leaf count, power of two
	k      int
	lose   []int
	winner int
	beats  func(a, b int) bool
}

func newLoserTree(k int, beats func(a, b int) bool) *loserTree {
	m := 1
	for m < k {
		m *= 2
	}
	lt := &loserTree{m: m, k: k, lose: make([]int, m), beats: beats}
	win := make([]int, 2*m)
	for i := 0; i < m; i++ {
		if i < k {
			win[m+i] = i
		} else {
			win[m+i] = -1
		}
	}
	for node := m - 1; node >= 1; node-- {
		a, b := win[2*node], win[2*node+1]
		w, l := lt.pick(a, b)
		win[node], lt.lose[node] = w, l
	}
	lt.winner = win[1]
	return lt
}

// pick returns (winner, loser) of a match; -1 always loses.
func (lt *loserTree) pick(a, b int) (int, int) {
	if a < 0 {
		return b, a
	}
	if b < 0 {
		return a, b
	}
	if lt.beats(b, a) {
		return b, a
	}
	return a, b
}

// fix replays the winner's root path after its cursor advanced (the
// cursor may now be exhausted; beats handles that as an automatic
// loss).
func (lt *loserTree) fix() {
	w := lt.winner
	if w < 0 {
		return
	}
	cur := w
	for node := (lt.m + w) / 2; node >= 1; node /= 2 {
		winner, loser := lt.pick(cur, lt.lose[node])
		cur, lt.lose[node] = winner, loser
	}
	lt.winner = cur
}
