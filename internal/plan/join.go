package plan

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"sciview/internal/engine"
	"sciview/internal/tuple"
)

// joinOp runs the chosen engine with a streaming sink: the engine's
// per-slot (IJ) or per-group (GH) goroutines emit batches as edges or
// bucket pairs complete, and the reorder sink releases them downstream in
// part order, so under IJ (whose parts replay deterministically) the
// streamed row sequence is byte-identical at any worker, prefetch or
// parallelism setting.
//
// Close before EOF is the early-exit path: it cancels the engine context
// (stopping slots through the existing cancel/prefetch-reap machinery),
// unblocks producers parked in the sink, waits for the run goroutine and
// synthesizes a Result carrying the schedule fraction actually joined.
type joinOp struct {
	opstat
	node     *JoinNode
	sink     *reorder
	cancel   context.CancelFunc
	resCh    chan engineOutcome
	progress *engine.Progress
	opened   time.Time
	res      *engine.Result
}

type engineOutcome struct {
	res *engine.Result
	err error
}

func (o *joinOp) Schema() tuple.Schema { return o.node.schema }

func (o *joinOp) Open(ctx context.Context) error {
	jctx, cancel := context.WithCancel(ctx)
	o.cancel = cancel
	// Under fault injection the engines may discard and replay a part's
	// output; commit-on-Done buffering keeps replays invisible downstream
	// at the price of an unbounded per-part buffer. Without fault
	// injection parts are never discarded, so the head part streams
	// through and the others throttle on a bounded buffer.
	o.sink = newReorder(o.node.Parts, o.node.Cluster.Config.Faults != nil)
	o.progress = &engine.Progress{}
	req := o.node.Req
	req.Sink = o.sink
	req.Progress = o.progress
	o.resCh = make(chan engineOutcome, 1)
	o.opened = time.Now()
	go func() {
		res, err := o.node.Eng.RunContext(jctx, o.node.Cluster, req)
		o.sink.finish(err)
		o.resCh <- engineOutcome{res, err}
	}()
	return nil
}

func (o *joinOp) Next() (*tuple.SubTable, error) {
	start := time.Now()
	defer o.timed(start)
	st, err := o.sink.next()
	if err != nil {
		return nil, err
	}
	o.observe(st)
	return st, nil
}

func (o *joinOp) Close() error {
	if o.cancel == nil {
		return nil
	}
	earlyExit := !o.sink.isFinished()
	o.cancel()
	o.sink.close()
	oc := <-o.resCh
	o.cancel = nil
	o.s.PeakBytes = o.sink.peak()
	switch {
	case oc.err == nil:
		o.res = oc.res
		if o.res != nil {
			// The engines bill every scratch write/read (GH's bucket
			// partitioning and any budget-forced build-side round-trips)
			// through their observation collectors.
			o.s.SpillBytes = o.res.Observed.SpillWriteBytes
			o.s.SpillReadBytes = o.res.Observed.SpillReadBytes
		}
	case earlyExit:
		// The consumer stopped first (LIMIT satisfied); the cancellation
		// error is ours. Report what the truncated run did execute.
		cl := o.node.Cluster
		o.res = &engine.Result{
			Engine:      o.node.Eng.Name(),
			Tuples:      o.s.Rows,
			Elapsed:     time.Since(o.opened),
			Traffic:     cl.Traffic(),
			Health:      cl.HealthStats(),
			UnitsJoined: o.progress.Joined.Load(),
			UnitsTotal:  o.progress.Total.Load(),
			Phases:      map[string]time.Duration{},
		}
	}
	// A genuine engine error already surfaced through Next; Close stays
	// clean so the driver reports the original error once.
	return nil
}

// result is the engine result after Close: the real one for completed
// runs, a synthesized one for early exits, nil when the run failed.
func (o *joinOp) result() *engine.Result { return o.res }

// errSinkClosed aborts producers once the consumer has gone away.
var errSinkClosed = errors.New("plan: result consumer closed")

// reorder is the engine.Sink that restores deterministic output order:
// batches arrive concurrently from per-part producer goroutines and are
// released to the single consumer in part order — every batch of part 0
// (in emission order), then part 1, and so on.
//
// Two modes:
//
//   - streaming (committed=false): a part's batches are consumable as
//     soon as they arrive; producers of not-yet-drained parts block after
//     maxBufferedBatches, bounding resident memory. Used when no fault
//     injection is configured, so parts are never discarded.
//
//   - commit-on-Done (committed=true): a part's batches are held back
//     until the part's final attempt succeeds (Done), and a failed
//     attempt's Discard drops them, keeping fault-tolerant replays
//     byte-invisible. Emit never blocks in this mode.
type reorder struct {
	mu        sync.Mutex
	cond      *sync.Cond
	pending   [][]*tuple.SubTable
	done      []bool
	head      int
	committed bool
	closed    bool
	finished  bool
	runErr    error
	curBytes  int64
	peakBytes int64
}

func newReorder(parts int, committed bool) *reorder {
	r := &reorder{
		pending:   make([][]*tuple.SubTable, parts),
		done:      make([]bool, parts),
		committed: committed,
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Emit implements engine.Sink.
func (r *reorder) Emit(part int, st *tuple.SubTable) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.committed {
		for !r.closed && len(r.pending[part]) >= maxBufferedBatches {
			r.cond.Wait()
		}
	}
	if r.closed {
		return errSinkClosed
	}
	r.pending[part] = append(r.pending[part], st)
	r.curBytes += int64(st.Bytes())
	if r.curBytes > r.peakBytes {
		r.peakBytes = r.curBytes
	}
	r.cond.Broadcast()
	return nil
}

// Done implements engine.Sink: part's final attempt completed.
func (r *reorder) Done(part int) {
	r.mu.Lock()
	r.done[part] = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Discard implements engine.Sink: a failed attempt's batches are dropped
// before the part replays.
func (r *reorder) Discard(part int) {
	r.mu.Lock()
	for _, st := range r.pending[part] {
		r.curBytes -= int64(st.Bytes())
	}
	r.pending[part] = nil
	r.done[part] = false
	r.cond.Broadcast()
	r.mu.Unlock()
}

// finish marks the engine run complete (err non-nil on failure); the
// consumer drains remaining released batches and then sees EOF or err.
func (r *reorder) finish(err error) {
	r.mu.Lock()
	r.finished = true
	r.runErr = err
	r.cond.Broadcast()
	r.mu.Unlock()
}

// close detaches the consumer: parked producers abort with errSinkClosed.
func (r *reorder) close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (r *reorder) isFinished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finished
}

func (r *reorder) peak() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peakBytes
}

// next blocks until the next in-order batch is available, the stream ends
// (io.EOF) or the run fails.
func (r *reorder) next() (*tuple.SubTable, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.runErr != nil {
			return nil, r.runErr
		}
		if r.head >= len(r.pending) {
			if r.finished {
				return nil, io.EOF
			}
			r.cond.Wait()
			continue
		}
		if len(r.pending[r.head]) > 0 && (!r.committed || r.done[r.head]) {
			st := r.pending[r.head][0]
			r.pending[r.head] = r.pending[r.head][1:]
			r.curBytes -= int64(st.Bytes())
			r.cond.Broadcast()
			return st, nil
		}
		if r.done[r.head] && len(r.pending[r.head]) == 0 {
			r.head++
			continue
		}
		r.cond.Wait()
	}
}
