package plan

import (
	"context"
	"io"
	"time"

	"sciview/internal/tuple"
)

// scanOp streams one base table chunk by chunk: the chunks in range are
// fetched through a bounded lookahead window (one in-flight fetch per
// compute node) and delivered in catalog order, so the row order is
// deterministic. The record-range filter and the
// projection are pushed into the BDS fetch; projected batches are
// reordered to the projection's column order.
type scanOp struct {
	opstat
	node    *ScanNode
	ctx     context.Context
	cancel  context.CancelFunc
	pending []chan fetchResult
	next    int
	issued  int
}

type fetchResult struct {
	st  *tuple.SubTable
	err error
}

func (o *scanOp) Schema() tuple.Schema { return o.node.schema }

func (o *scanOp) Open(ctx context.Context) error {
	o.ctx, o.cancel = context.WithCancel(ctx)
	o.pending = make([]chan fetchResult, len(o.node.descs))
	return nil
}

func (o *scanOp) Next() (*tuple.SubTable, error) {
	start := time.Now()
	defer o.timed(start)
	nj := len(o.node.Cluster.Compute)
	for {
		// Keep the lookahead window full: fetches for the next nj chunks
		// run concurrently while the head chunk is consumed.
		for o.issued < len(o.node.descs) && o.issued < o.next+nj {
			i := o.issued
			ch := make(chan fetchResult, 1)
			o.pending[i] = ch
			go func() {
				st, err := o.node.Cluster.FetchProjected(o.ctx, i%nj, o.node.descs[i], &o.node.filter, o.node.Proj)
				ch <- fetchResult{st, err}
			}()
			o.issued++
		}
		if o.next >= len(o.node.descs) {
			return nil, io.EOF
		}
		r := <-o.pending[o.next]
		o.pending[o.next] = nil
		o.next++
		if r.err != nil {
			return nil, r.err
		}
		st := r.st
		if o.node.Proj != nil {
			var err error
			if st, err = st.Project(o.node.Proj); err != nil {
				return nil, err
			}
		}
		if st.NumRows() == 0 {
			continue
		}
		o.observe(st)
		return st, nil
	}
}

func (o *scanOp) Close() error {
	if o.cancel == nil {
		return nil
	}
	o.cancel()
	// Reap in-flight fetches so no goroutine outlives the operator.
	for i := o.next; i < o.issued; i++ {
		<-o.pending[i]
	}
	o.cancel = nil
	return nil
}
