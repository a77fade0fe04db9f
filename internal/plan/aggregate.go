package plan

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"sciview/internal/dds"
	"sciview/internal/scratch"
	"sciview/internal/tuple"
)

// Spillable aggregation constants: partitions per split, recursion
// depth cap (a partition of one giant group cannot shrink), flush
// threshold for the pass-1 partition buffers, and the per-group state
// charge (accumulators + map overhead on top of the output record).
const (
	aggFanout     = 8
	aggMaxDepth   = 3
	aggFlushBytes = 16 << 10
	aggGroupOver  = 64
)

// aggregateOp is the blocking aggregation operator. In memory it folds
// every batch into one dds.Partial and finalizes it. Partial merges are
// order-independent (exact sums, total-order MIN/MAX), so the result
// depends only on the input rows, not on the order batches arrive in.
//
// When the estimated group state exceeds the stamped spill budget, the
// operator runs out-of-core instead: pass 1 hashes each row's group key
// and partitions the raw rows to scratch; pass 2 replays one partition at
// a time into its own partial and merges it into the global base. A
// group's rows land wholly in one partition (the hash is a function of
// the group key), and merges commute, so the finalized output is
// byte-identical at any budget. A partition whose group state still
// exceeds the budget is re-partitioned with the next salt (skew
// recursion) before any of it reaches the base.
type aggregateOp struct {
	opstat
	node    *AggregateNode
	child   Operator
	emitted bool
	mgr     *scratch.Manager
}

func (o *aggregateOp) Schema() tuple.Schema { return o.node.schema }

func (o *aggregateOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *aggregateOp) Next() (*tuple.SubTable, error) {
	start := time.Now()
	defer o.timed(start)
	if o.emitted {
		return nil, io.EOF
	}
	o.emitted = true

	n := o.node
	if n.SpillBudget > 0 && n.SpillDisk != nil && len(n.GroupBy) > 0 &&
		residentBytes(n) > n.SpillBudget {
		return o.nextExternal()
	}

	base, err := dds.NewPartial(o.child.Schema(), n.Items, n.GroupBy, n.Having)
	if err != nil {
		return nil, err
	}
	for {
		st, err := o.child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := base.Fold(st); err != nil {
			return nil, err
		}
	}
	out, err := base.Finalize(n.Having)
	if err != nil {
		return nil, err
	}
	o.s.PeakBytes = int64(out.Bytes())
	o.observe(out)
	return out, nil
}

func (o *aggregateOp) Close() error {
	if o.mgr != nil {
		o.s.SpillBytes = o.mgr.BytesWritten()
		o.s.SpillReadBytes = o.mgr.BytesRead()
		o.s.SpillParts = o.mgr.Files()
		o.mgr.ReleaseAll()
	}
	return o.child.Close()
}

// aggPart is one scratch partition awaiting replay.
type aggPart struct {
	f     *scratch.File
	salt  uint64
	depth int
}

// nextExternal is the out-of-core aggregation path.
func (o *aggregateOp) nextExternal() (*tuple.SubTable, error) {
	n := o.node
	inSchema := o.child.Schema()
	groupIdxs, err := inSchema.Indexes(n.GroupBy)
	if err != nil {
		return nil, err
	}
	o.mgr = scratch.NewManager(n.SpillDisk,
		fmt.Sprintf("plan/agg/r%d", spillSeq.Add(1)),
		n.SpillOwner, n.SpillTrace, nil)
	groupBytes := int64(n.schema.RecordSize() + aggGroupOver)

	// Pass 1: partition raw rows by group-key hash.
	w := newAggWriter(o.mgr, inSchema, groupIdxs, 0, "p")
	for {
		st, err := o.child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := w.add(st); err != nil {
			return nil, err
		}
	}
	parts, err := w.finish()
	if err != nil {
		return nil, err
	}

	// Pass 2: replay partition by partition, splitting skewed ones.
	base, err := dds.NewPartial(inSchema, n.Items, n.GroupBy, n.Having)
	if err != nil {
		return nil, err
	}
	var peakPart int64
	for len(parts) > 0 {
		pt := parts[0]
		parts = parts[1:]
		partial, overflow, err := o.foldPartition(pt, inSchema, groupBytes)
		if err != nil {
			return nil, err
		}
		if overflow {
			// Skewed: too many groups for the budget. Nothing from this
			// partition has touched the base yet, so abandon the partial
			// and re-partition the raw rows with the next salt.
			sub := newAggWriter(o.mgr, inSchema, groupIdxs, pt.salt+1,
				fmt.Sprintf("s%d", pt.salt+1))
			if err := o.repartition(pt, inSchema, sub); err != nil {
				return nil, err
			}
			subParts, err := sub.finish()
			if err != nil {
				return nil, err
			}
			for i := range subParts {
				subParts[i].depth = pt.depth + 1
			}
			parts = append(parts, subParts...)
			o.mgr.Release(pt.f)
			continue
		}
		if state := int64(partial.Groups()) * groupBytes; state > peakPart {
			peakPart = state
		}
		if err := base.Merge(partial); err != nil {
			return nil, err
		}
		o.mgr.Release(pt.f)
	}
	out, err := base.Finalize(n.Having)
	if err != nil {
		return nil, err
	}
	o.s.PeakBytes = peakPart + int64(base.Groups())*groupBytes + int64(out.Bytes())
	o.observe(out)
	return out, nil
}

// foldPartition streams one partition's blocks into a partial. It stops
// early (overflow=true) as soon as the accumulated group state exceeds
// the budget and the partition may still recurse.
func (o *aggregateOp) foldPartition(pt aggPart, inSchema tuple.Schema, groupBytes int64) (*dds.Partial, bool, error) {
	n := o.node
	rd, err := openAggPart(pt, inSchema)
	if err != nil {
		return nil, false, err
	}
	defer rd.close()
	p, err := dds.NewPartial(inSchema, n.Items, n.GroupBy, n.Having)
	if err != nil {
		return nil, false, err
	}
	for {
		st, err := rd.next()
		if err == io.EOF {
			return p, false, nil
		}
		if err != nil {
			return nil, false, err
		}
		if err := p.Fold(st); err != nil {
			return nil, false, err
		}
		if int64(p.Groups())*groupBytes > n.SpillBudget && pt.depth < aggMaxDepth {
			return nil, true, nil
		}
	}
}

// repartition re-streams a skewed partition into the sub-writer with
// the next salt.
func (o *aggregateOp) repartition(pt aggPart, inSchema tuple.Schema, sub *aggWriter) error {
	rd, err := openAggPart(pt, inSchema)
	if err != nil {
		return err
	}
	defer rd.close()
	for {
		st, err := rd.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := sub.add(st); err != nil {
			return err
		}
	}
}

// aggWriter partitions rows by salted group-key hash into per-partition
// scratch files, framed as plain row blocks (scratch.EncodeRows) flushed
// whenever a buffer passes aggFlushBytes.
type aggWriter struct {
	mgr       *scratch.Manager
	schema    tuple.Schema
	groupIdxs []int
	salt      uint64

	files []*scratch.File
	bufs  []*tuple.SubTable
	label string
}

func newAggWriter(mgr *scratch.Manager, schema tuple.Schema, groupIdxs []int, salt uint64, label string) *aggWriter {
	return &aggWriter{
		mgr: mgr, schema: schema, groupIdxs: groupIdxs, salt: salt,
		files: make([]*scratch.File, aggFanout),
		bufs:  make([]*tuple.SubTable, aggFanout),
		label: label,
	}
}

// add routes st's rows to their partitions.
func (w *aggWriter) add(st *tuple.SubTable) error {
	row := tuple.GetRow(w.schema.NumAttrs())
	defer tuple.PutRow(row)
	for r := 0; r < st.NumRows(); r++ {
		i := int(groupHash(st, r, w.groupIdxs, w.salt) % aggFanout)
		if w.bufs[i] == nil {
			w.bufs[i] = tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(i)}, w.schema, 0)
		} else if w.bufs[i].Bytes() >= aggFlushBytes {
			if err := w.flush(i); err != nil {
				return err
			}
		}
		w.bufs[i].AppendRow(st.Row(r, row)...)
	}
	return nil
}

// flush writes partition i's buffered rows as one block.
func (w *aggWriter) flush(i int) error {
	st := w.bufs[i]
	if st == nil || st.NumRows() == 0 {
		return nil
	}
	if w.files[i] == nil {
		w.files[i] = w.mgr.Create(fmt.Sprintf("agg-%s%d", w.label, i))
	}
	buf := scratch.EncodeRows(st)
	err := w.files[i].AppendRows(buf, int64(st.NumRows()))
	tuple.PutBuf(buf)
	if err != nil {
		return err
	}
	w.bufs[i] = tuple.NewSubTable(st.ID, w.schema, 0)
	return nil
}

// finish flushes every buffer and returns the non-empty partitions.
func (w *aggWriter) finish() ([]aggPart, error) {
	var parts []aggPart
	for i := range w.bufs {
		if err := w.flush(i); err != nil {
			return nil, err
		}
		if w.files[i] != nil && w.files[i].Size() > 0 {
			parts = append(parts, aggPart{f: w.files[i], salt: w.salt})
		}
	}
	return parts, nil
}

// aggReader replays a partition file as row blocks of up to
// aggFlushBytes; a trailing partial record fails the decode.
type aggReader struct {
	rd     *scratch.Reader
	schema tuple.Schema
	buf    []byte
}

func openAggPart(pt aggPart, schema tuple.Schema) (*aggReader, error) {
	rd, err := pt.f.Open()
	if err != nil {
		return nil, err
	}
	n := max(1, aggFlushBytes/schema.RecordSize()) * schema.RecordSize()
	return &aggReader{rd: rd, schema: schema, buf: tuple.GetBuf(n)[:n]}, nil
}

// close recycles the block buffer.
func (r *aggReader) close() { tuple.PutBuf(r.buf) }

// next returns the next block, or io.EOF after the last.
func (r *aggReader) next() (*tuple.SubTable, error) {
	n, err := io.ReadFull(r.rd, r.buf)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("plan: aggregate block: %w", err)
	}
	return scratch.DecodeRows(r.schema, r.buf[:n], tuple.ID{Table: -1, Chunk: -1})
}

// groupHash hashes a row's group-key bits with a salt (splitmix-style
// avalanche): rows of one group always share a partition, and the next
// salt re-spreads a skewed partition's groups.
func groupHash(st *tuple.SubTable, r int, idxs []int, salt uint64) uint64 {
	h := (salt + 1) * 0x9E3779B97F4A7C15
	for _, gi := range idxs {
		h ^= uint64(math.Float32bits(st.Value(r, gi)))
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
