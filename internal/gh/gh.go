// Package gh implements the Grace Hash join QES, modified as in the paper
// so that every joiner node performs its bucket joins independently (no
// network traffic during the bucket-joining phase).
//
// Phase 1 (partition): a QES instance on each storage node contacts the
// local BDS instance for the matching sub-tables of the left table; a hash
// function h1 over the join key routes each record to a compute-node QES
// instance, which applies a second, independent hash h2 to place the record
// in a spill bucket on its local scratch disk. The same procedure is then
// repeated for the right table. Phase 2 (bucket join): each compute node
// reads its bucket pairs back and joins them in memory.
//
// GH is insensitive to how the dataset is partitioned (the connectivity
// graph never enters), but pays the extra write+read I/O of bucket spills —
// exactly the trade the cost models capture.
package gh

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/colenc"
	"sciview/internal/engine"
	"sciview/internal/fault"
	"sciview/internal/hashjoin"
	"sciview/internal/metadata"
	"sciview/internal/scratch"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// Engine is the Grace Hash QES.
type Engine struct {
	// Buckets is the number of spill buckets per joiner per table
	// (h2's range). 0 selects a default that keeps expected bucket size
	// around DefaultBucketBytes.
	Buckets int
	// BatchRows is the number of records accumulated per storage→joiner
	// shipment (0 = default).
	BatchRows int
	// FlushRows is the bucket buffer size before spilling to scratch disk
	// (0 = default).
	FlushRows int
	// MemoryBytes caps the in-memory size of one bucket side during the
	// join phase ("the number of buckets is chosen so that each bucket
	// fits in memory"). When key skew overflows a bucket past the cap, it
	// is recursively repartitioned with a salted hash — spilled and
	// re-read through the scratch disk — before joining. 0 disables the
	// check (buckets assumed to fit).
	MemoryBytes int64
}

// Defaults for the tunables.
const (
	DefaultBucketBytes = 1 << 20
	defaultBatchRows   = 4096
	defaultFlushRows   = 4096
)

// New returns a Grace Hash engine with default tuning.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "gh" }

var _ engine.Engine = (*Engine)(nil)

// h1 routes a join key to a joiner node; h2 places it in a bucket. The two
// use unrelated finalizer constants so bucket occupancy is uniform within a
// joiner (a correlated h2 would put each joiner's records in few buckets).
func h1(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xFF51AFD7ED558CCD
	key ^= key >> 33
	return key
}

func h2(key uint64) uint64 {
	key ^= key >> 30
	key *= 0xBF58476D1CE4E5B9
	key ^= key >> 27
	key *= 0x94D049BB133111EB
	key ^= key >> 31
	return key
}

// h3 is the salted hash for recursive repartitioning of overflowing
// buckets; the salt decorrelates it from h2 at every recursion depth.
func h3(key, salt uint64) uint64 {
	return h2(key ^ (salt+1)*0x9E3779B97F4A7C15)
}

// runSeq distinguishes the scratch-disk namespaces of concurrent shared
// runs: two queries spilling on the same joiner must not append to the
// same bucket objects.
var runSeq atomic.Int64

// Run implements engine.Engine.
func (e *Engine) Run(cl *cluster.Cluster, req engine.Request) (*engine.Result, error) {
	return e.RunContext(context.Background(), cl, req)
}

// RunContext implements engine.Engine.
func (e *Engine) RunContext(ctx context.Context, cl *cluster.Cluster, req engine.Request) (*engine.Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	wf := req.WorkFactor
	if wf < 1 {
		wf = 1
	}
	batchRows := e.BatchRows
	if batchRows <= 0 {
		batchRows = defaultBatchRows
	}
	flushRows := e.FlushRows
	if flushRows <= 0 {
		flushRows = defaultFlushRows
	}
	leftDef, err := cl.Catalog.Table(req.LeftTable)
	if err != nil {
		return nil, err
	}
	rightDef, err := cl.Catalog.Table(req.RightTable)
	if err != nil {
		return nil, err
	}
	leftFilter := filterFor(leftDef, req.Filter)
	leftFilter.Versions = req.LeftWindow()
	rightFilter := filterFor(rightDef, req.Filter)
	rightFilter.Versions = req.RightWindow()
	project := req.EffectiveProject()
	leftSchema := engine.ProjectedSchema(leftDef.Schema, project)
	rightSchema := engine.ProjectedSchema(rightDef.Schema, project)

	if req.Shared {
		cl.AcquireShared()
		defer cl.ReleaseShared()
	} else {
		cl.AcquireRun()
		defer cl.ReleaseRun()
		cl.Reset()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()

	buckets := e.Buckets
	if buckets <= 0 {
		buckets = e.defaultBuckets(cl, leftDef, rightDef, req)
	}

	run := runSeq.Add(1)
	obs := &engine.ObsCollector{}
	nj := len(cl.Compute)
	// The effective per-pair memory cap: the engine tunable, tightened by
	// the request's admission budget when one is set (two bucket sides per
	// joiner may be resident at once, hence the 2·nj divisor).
	memCap := e.MemoryBytes
	if req.MemoryBudget > 0 {
		share := req.MemoryBudget / int64(2*nj)
		if share < 1 {
			share = 1
		}
		if memCap == 0 || share < memCap {
			memCap = share
		}
	}
	// Every scratch manager the run mounts (including rebuild remounts) is
	// reaped on exit, so a cancelled or failed run leaves no orphans.
	var mgrMu sync.Mutex
	var mgrs []*scratch.Manager
	track := func(m *scratch.Manager) {
		mgrMu.Lock()
		mgrs = append(mgrs, m)
		mgrMu.Unlock()
	}
	defer func() {
		mgrMu.Lock()
		defer mgrMu.Unlock()
		for _, m := range mgrs {
			m.ReleaseAll()
		}
	}()
	// One partition group per h1 class: all records with h1(key)%nj == g
	// belong to group g, held by one (reassignable) executor node. The
	// group — not the node — is the recovery unit: losing a node loses
	// exactly its groups' partitions, which are rebuilt from replicas.
	groups := make([]*group, nj)
	for g := 0; g < nj; g++ {
		groups[g] = &group{g: g, exec: g}
		groups[g].mount(cl, run, leftSchema, rightSchema, buckets, flushRows, req.Trace, obs, track)
	}
	sp := &scanParams{
		leftTable: req.LeftTable, rightTable: req.RightTable,
		leftFilter: leftFilter, rightFilter: rightFilter,
		project: project, joinAttrs: req.JoinAttrs,
		batchRows: batchRows, nj: nj, rec: req.Trace, obs: obs, track: track,
	}

	// Phase 1: partition the left table, then the right table. A compute
	// node dying here only marks its groups lost (their records stop
	// shipping); phase 2 rebuilds them wholesale on survivors.
	partStart := time.Now()
	if err := e.scanTable(ctx, cl, sideLeft, groups, -1, sp); err != nil {
		return nil, err
	}
	if err := e.scanTable(ctx, cl, sideRight, groups, -1, sp); err != nil {
		return nil, err
	}
	// Flush residual bucket buffers — on every executor's scratch disk in
	// parallel, as each executor owns its disk.
	flushErrs := make([]error, nj)
	var flushWG sync.WaitGroup
	for g := 0; g < nj; g++ {
		flushWG.Add(1)
		go func(grp *group, idx int) {
			defer flushWG.Done()
			flushErrs[idx] = grp.flush()
		}(groups[g], g)
	}
	flushWG.Wait()
	for _, err := range flushErrs {
		if err != nil {
			return nil, err
		}
	}
	partElapsed := time.Since(partStart)

	// Publish the phase-2 schedule size: one unit per non-empty bucket
	// pair. flushWG.Wait() ordered the partition writes before this read.
	// Joined counts executed pairs, so fault-driven group rebuilds can push
	// it past Total; an undisturbed full run ends with Joined == Total.
	prog := req.Progress
	if prog == nil {
		prog = &engine.Progress{}
		req.Progress = prog
	}
	for _, grp := range groups {
		for k := 0; k < buckets; k++ {
			if grp.lp.rows[k] > 0 && grp.rp.rows[k] > 0 {
				prog.Total.Add(1)
			}
		}
	}

	// Phase 2: every group's bucket pairs join independently on its
	// executor. A group lost in phase 1 — or whose executor dies mid-join —
	// is rebuilt from replicas on a survivor and re-joined from scratch;
	// per-attempt output and stats are discarded on failure, so recovered
	// runs double-count nothing.
	joinStart := time.Now()
	outSchema := leftSchema.JoinResult(rightSchema, req.JoinAttrs, "r_")
	var stats hashjoin.Stats
	errs := make([]error, nj)
	var wg sync.WaitGroup
	for g := 0; g < nj; g++ {
		wg.Add(1)
		go func(grp *group) {
			defer wg.Done()
			errs[grp.g] = e.runGroup(ctx, cl, grp, run,
				leftSchema, rightSchema, buckets, flushRows, req, wf, memCap, outSchema, sp, &stats)
		}(groups[g])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	joinElapsed := time.Since(joinStart)

	res := &engine.Result{
		Engine:  e.Name(),
		Elapsed: time.Since(start),
		Join: engine.JoinCounts{
			TuplesBuilt:  stats.TuplesBuilt.Load(),
			TuplesProbed: stats.TuplesProbed.Load(),
			Matches:      stats.Matches.Load(),
		},
		Traffic: cl.Traffic(),
		Health:  cl.HealthStats(),
		Phases: map[string]time.Duration{
			"partition":  partElapsed,
			"bucketjoin": joinElapsed,
		},
	}
	res.Tuples = res.Join.Matches
	res.UnitsJoined = prog.Joined.Load()
	res.UnitsTotal = prog.Total.Load()
	res.Observed = obs.Snapshot()
	return res, nil
}

// defaultBuckets sizes h2's range so one bucket of the larger side is
// about DefaultBucketBytes.
func (e *Engine) defaultBuckets(cl *cluster.Cluster, leftDef, rightDef *metadata.TableDef, req engine.Request) int {
	var maxBytes int64
	for _, def := range []*metadata.TableDef{leftDef, rightDef} {
		var rows int64
		for _, d := range cl.Catalog.Chunks(def.ID) {
			rows += int64(d.Rows)
		}
		bytes := rows * int64(def.Schema.RecordSize())
		if bytes > maxBytes {
			maxBytes = bytes
		}
	}
	perJoiner := maxBytes / int64(len(cl.Compute))
	b := int(perJoiner/DefaultBucketBytes) + 1
	if b < 4 {
		b = 4
	}
	return b
}

// group is one h1 partition class and the engine's recovery unit: every
// record with h1(key)%nj == g funnels into group g's partitioner pair on
// its executor node. When the executor dies, only this group's partitions
// are lost; a survivor takes the group over and rebuilds them from
// replicas under a fresh attempt-numbered scratch prefix.
type group struct {
	g       int
	exec    int // current executor compute node
	attempt int // increments per rebuild; namespaces scratch objects
	mgr     *scratch.Manager
	lp, rp  *partitioner
	// lost marks the group's partitions as gone (executor died while they
	// were being written or read). Scanners stop shipping to a lost group;
	// phase 2 rebuilds it before joining.
	lost atomic.Bool
}

// mount installs a fresh scratch manager and partitioner pair for the
// group's current (exec, attempt) on the executor's scratch disk.
func (grp *group) mount(cl *cluster.Cluster, run int64, leftSchema, rightSchema tuple.Schema,
	buckets, flushRows int, rec *trace.Recorder, obs *engine.ObsCollector, track func(*scratch.Manager)) {
	node := fmt.Sprintf("joiner-%d", grp.exec)
	grp.mgr = scratch.NewManager(cl.Compute[grp.exec].Scratch,
		fmt.Sprintf("gh/r%d/g%da%d", run, grp.g, grp.attempt), node, rec, obs)
	if track != nil {
		track(grp.mgr)
	}
	grp.lp = newPartitioner(grp.mgr, "L", leftSchema, buckets, flushRows)
	grp.rp = newPartitioner(grp.mgr, "R", rightSchema, buckets, flushRows)
	grp.lp.node, grp.rp.node = node, node
	grp.lp.obs, grp.rp.obs = obs, obs
}

// flush spills the group's residual buffers, downgrading an executor
// death to a lost mark (phase 2 rebuilds) rather than a run failure.
func (grp *group) flush() error {
	if grp.lost.Load() {
		return nil
	}
	err := grp.lp.flushAll()
	if err == nil {
		err = grp.rp.flushAll()
	}
	if err != nil {
		if node, down := fault.IsNodeDown(err); down && node == fault.ComputeNode(grp.exec) {
			grp.lost.Store(true)
			return nil
		}
		return err
	}
	return nil
}

// side selects a group's partitioner.
type side int

const (
	sideLeft side = iota
	sideRight
)

func (grp *group) part(sd side) *partitioner {
	if sd == sideLeft {
		return grp.lp
	}
	return grp.rp
}

// scanParams bundles the table-scan inputs shared by the initial
// partitioning pass and per-group rebuilds.
type scanParams struct {
	leftTable, rightTable   string
	leftFilter, rightFilter metadata.Range
	project, joinAttrs      []string
	batchRows               int
	nj                      int // h1's range — fixed for the run, even when rebuilding one group
	rec                     *trace.Recorder
	obs                     *engine.ObsCollector
	track                   func(*scratch.Manager) // registers remounted managers for end-of-run cleanup
}

func (sp *scanParams) table(sd side) (string, metadata.Range) {
	if sd == sideLeft {
		return sp.leftTable, sp.leftFilter
	}
	return sp.rightTable, sp.rightFilter
}

// scanTable runs the storage-side QES instances for one table in parallel:
// scan the matching sub-tables (each chunk served by its primary node or,
// when that node is unreachable, a replica), split records by h1 into
// per-group batches, ship each batch and hand it to the group's
// partitioner. With only >= 0, records of every other group are skipped —
// the rebuild path re-materializing one lost group.
func (e *Engine) scanTable(ctx context.Context, cl *cluster.Cluster, sd side, groups []*group, only int, sp *scanParams) error {
	table, filter := sp.table(sd)
	all, err := cl.Catalog.ChunksInRange(table, filter)
	if err != nil {
		return err
	}
	nj := sp.nj
	errs := make([]error, len(cl.Storage))
	var wg sync.WaitGroup
	for s := range cl.Storage {
		mine := make([]*chunk.Desc, 0, len(all)/len(cl.Storage)+1)
		for _, d := range all {
			if d.Node == s {
				mine = append(mine, d)
			}
		}
		if len(mine) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, descs []*chunk.Desc) {
			defer wg.Done()
			// Per-group outgoing batches, reused across shipments: add()
			// copies every row out synchronously, so a shipped batch can
			// be Reset and refilled instead of reallocated.
			var schema tuple.Schema
			batches := make([]*tuple.SubTable, nj)
			var keyIdxs []int
			var row []float32
			src := s // node that served the latest chunk (ship attribution)
			for _, d := range descs {
				if err := ctx.Err(); err != nil {
					errs[s] = err
					return
				}
				fetchStart := time.Now()
				st, served, err := cl.ScanChunk(ctx, d, &filter, sp.project)
				if err != nil {
					errs[s] = err
					return
				}
				src = served
				// The storage-side disk read is the first leg of GH's
				// transfer; shipBatch adds the network leg's seconds (with
				// no extra bytes), so the calibrated per-stream rate prices
				// the full scan→ship pipeline.
				sp.obs.Fetch(int64(st.Bytes()), time.Since(fetchStart))
				sp.rec.Span(fmt.Sprintf("storage-%d", served), trace.KindFetch, d.ID().String(), fetchStart,
					int64(st.Bytes()), int64(st.NumRows()))
				if keyIdxs == nil {
					schema = st.Schema
					keyIdxs, err = schema.Indexes(sp.joinAttrs)
					if err != nil {
						errs[s] = err
						return
					}
					row = tuple.GetRow(schema.NumAttrs())
					defer tuple.PutRow(row)
				}
				for r := 0; r < st.NumRows(); r++ {
					g := int(h1(st.Key(r, keyIdxs)) % uint64(nj))
					if only >= 0 && g != only {
						continue
					}
					if batches[g] == nil {
						batches[g] = tuple.NewSubTable(tuple.ID{Table: st.ID.Table, Chunk: -1}, schema, sp.batchRows)
					}
					batches[g].AppendRow(st.Row(r, row)...)
					if batches[g].NumRows() >= sp.batchRows {
						if err := e.shipBatch(cl, src, groups[g], sd, batches[g], keyIdxs, sp.rec); err != nil {
							errs[s] = err
							return
						}
						batches[g].Reset()
					}
				}
			}
			for g, b := range batches {
				if b != nil && b.NumRows() > 0 {
					if err := e.shipBatch(cl, src, groups[g], sd, b, keyIdxs, sp.rec); err != nil {
						errs[s] = err
						return
					}
				}
			}
		}(s, mine)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shipBatch models the network transfer of a record batch from storage
// node src to the group's executor and delivers it to the group's
// partitioner. A batch for a lost group is dropped — its records will be
// re-materialized wholesale when the group rebuilds, so partial delivery
// now would double-count. An executor death during delivery marks the
// group lost instead of failing the scan.
func (e *Engine) shipBatch(cl *cluster.Cluster, src int, grp *group, sd side,
	batch *tuple.SubTable, keyIdxs []int, rec *trace.Recorder) error {
	if grp.lost.Load() {
		return nil
	}
	part := grp.part(sd)
	start := time.Now()
	// Under the colenc wire codec the batch travels in compressed columnar
	// form; the modeled NIC is charged the frame size the sizing pass
	// computes, not the row-major payload. Rows delivered to the
	// partitioner are identical either way.
	size := int64(batch.Bytes())
	if cl.Config.WireEncoded() {
		size = int64(colenc.WireSize(batch))
	}
	cl.Ship(src, grp.exec, size)
	part.obs.Fetch(0, time.Since(start))
	rec.Span(fmt.Sprintf("storage-%d", src), trace.KindShip, part.node, start,
		size, int64(batch.NumRows()))
	if err := part.add(batch, keyIdxs); err != nil {
		if node, down := fault.IsNodeDown(err); down && node == fault.ComputeNode(grp.exec) {
			grp.lost.Store(true)
			return nil
		}
		return err
	}
	return nil
}

// runGroup drives one group through phase 2, rebuilding it as needed. The
// loop invariant: joinBuckets only runs against a group whose partitions
// are complete on a live executor; every attempt starts with fresh output
// and stats, merged into the run totals only on success.
func (e *Engine) runGroup(ctx context.Context, cl *cluster.Cluster, grp *group, run int64,
	leftSchema, rightSchema tuple.Schema, buckets, flushRows int, req engine.Request, wf int,
	memCap int64, outSchema tuple.Schema, sp *scanParams, stats *hashjoin.Stats) error {

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if grp.lost.Load() || cl.ComputeDown(grp.exec) {
			if err := e.rebuildGroup(ctx, cl, grp, run, leftSchema, rightSchema, buckets, flushRows, req, sp); err != nil {
				return err
			}
		}
		var local hashjoin.Stats
		err := e.joinBuckets(ctx, cl.Compute[grp.exec], grp, req, wf, memCap, buckets, outSchema, &local)
		if err == nil {
			mergeStats(stats, &local)
			if req.Sink != nil {
				req.Sink.Done(grp.g)
			}
			return nil
		}
		if node, down := fault.IsNodeDown(err); down && node == fault.ComputeNode(grp.exec) {
			// The executor died mid-join: its partitions and partial output
			// are gone. Rebuild on a survivor and join from scratch.
			if req.Sink != nil {
				req.Sink.Discard(grp.g)
			}
			grp.lost.Store(true)
			cl.Health.Recoveries.Add(1)
			continue
		}
		return err
	}
}

// rebuildGroup re-homes a lost group on the next surviving compute node
// and re-materializes exactly its partitions by re-scanning both tables
// from replicas, under a fresh attempt-numbered scratch namespace (stale
// partial objects from the dead attempt are never read).
func (e *Engine) rebuildGroup(ctx context.Context, cl *cluster.Cluster, grp *group, run int64,
	leftSchema, rightSchema tuple.Schema, buckets, flushRows int, req engine.Request, sp *scanParams) error {

	next, ok := nextAlive(cl, grp.exec)
	if !ok {
		return fmt.Errorf("gh: group %d: no compute nodes left", grp.g)
	}
	start := time.Now()
	prev := grp.exec
	grp.exec = next
	grp.attempt++
	grp.lost.Store(false)
	grp.mount(cl, run, leftSchema, rightSchema, buckets, flushRows, sp.rec, sp.obs, sp.track)
	cl.Health.Rebuilds.Add(1)
	// h1 classes are positional: scanTable indexes groups[g], so the slice
	// spans all nj classes even though only grp.g receives rows.
	groups := make([]*group, sp.nj)
	groups[grp.g] = grp
	if err := e.scanTable(ctx, cl, sideLeft, groups, grp.g, sp); err != nil {
		return err
	}
	if err := e.scanTable(ctx, cl, sideRight, groups, grp.g, sp); err != nil {
		return err
	}
	if err := grp.flush(); err != nil {
		return err
	}
	sp.rec.Span(fmt.Sprintf("joiner-%d", grp.exec), trace.KindRecover,
		fmt.Sprintf("group %d rebuilt after compute-%d died", grp.g, prev), start, 0, 0)
	return nil
}

// nextAlive returns the first surviving compute node after `from` in ring
// order.
func nextAlive(cl *cluster.Cluster, from int) (int, bool) {
	n := len(cl.Compute)
	for d := 1; d <= n; d++ {
		j := (from + d) % n
		if !cl.ComputeDown(j) {
			return j, true
		}
	}
	return 0, false
}

// mergeStats folds one group attempt's counters into the run totals.
func mergeStats(dst, src *hashjoin.Stats) {
	dst.TuplesBuilt.Add(src.TuplesBuilt.Load())
	dst.TuplesProbed.Add(src.TuplesProbed.Load())
	dst.Matches.Add(src.Matches.Load())
}

// partitioner is the compute-node side of phase 1 for one table: it
// applies h2 and spills bucket buffers through the group's scratch
// manager, which owns billing, tracing, and end-of-run cleanup.
type partitioner struct {
	mu        sync.Mutex
	mgr       *scratch.Manager
	side      string // "L" or "R" — the bucket-name namespace
	node      string
	obs       *engine.ObsCollector
	schema    tuple.Schema
	buckets   []*tuple.SubTable
	rows      []int64 // total rows spilled per bucket (for sizing checks)
	flushRows int
}

func newPartitioner(mgr *scratch.Manager, side string, schema tuple.Schema, buckets, flushRows int) *partitioner {
	p := &partitioner{
		mgr:       mgr,
		side:      side,
		schema:    schema,
		buckets:   make([]*tuple.SubTable, buckets),
		rows:      make([]int64, buckets),
		flushRows: flushRows,
	}
	for k := range p.buckets {
		p.buckets[k] = tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(k)}, schema, flushRows)
	}
	return p
}

func (p *partitioner) object(k int) string { return fmt.Sprintf("%s/b%d", p.side, k) }

// add partitions a batch into buckets, spilling full buffers.
func (p *partitioner) add(batch *tuple.SubTable, keyIdxs []int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	nb := uint64(len(p.buckets))
	row := tuple.GetRow(p.schema.NumAttrs())
	defer tuple.PutRow(row)
	for r := 0; r < batch.NumRows(); r++ {
		k := int(h2(batch.Key(r, keyIdxs)) % nb)
		p.buckets[k].AppendRow(batch.Row(r, row)...)
		if p.buckets[k].NumRows() >= p.flushRows {
			if err := p.spill(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// spill writes bucket k's buffer to scratch disk (raw row-major records)
// and resets the buffer. Caller holds the lock.
func (p *partitioner) spill(k int) error {
	b := p.buckets[k]
	if b.NumRows() == 0 {
		return nil
	}
	data := encodeRows(b)
	err := p.mgr.File(p.object(k)).AppendRows(data, int64(b.NumRows()))
	tuple.PutBuf(data) // the store copied; recycle the encode buffer
	if err != nil {
		return err
	}
	p.rows[k] += int64(b.NumRows())
	b.Reset()
	return nil
}

// flushAll spills every non-empty buffer.
func (p *partitioner) flushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.buckets {
		if err := p.spill(k); err != nil {
			return err
		}
	}
	return nil
}

// readBucket loads bucket k back from scratch disk. The read is
// size-verified by the manager: a bucket the store holds short (a
// crashed or short write slipped through) fails loudly here.
func (p *partitioner) readBucket(k int) (*tuple.SubTable, error) {
	if p.rows[k] == 0 {
		return tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(k)}, p.schema, 0), nil
	}
	data, err := p.mgr.File(p.object(k)).ReadAll()
	if err != nil {
		return nil, err
	}
	return decodeRows(p.schema, data, int32(k))
}

// deleteBucket removes bucket k's object (post-join cleanup).
func (p *partitioner) deleteBucket(k int) error {
	p.mgr.Release(p.mgr.File(p.object(k)))
	return nil
}

// joinBuckets is phase 2 for one group: join its bucket pairs
// independently on the group's current executor.
func (e *Engine) joinBuckets(ctx context.Context, cn *cluster.ComputeNode, grp *group, req engine.Request,
	wf int, memCap int64, buckets int, outSchema tuple.Schema, stats *hashjoin.Stats) error {

	lp, rp := grp.lp, grp.rp
	out := tuple.NewSubTable(tuple.ID{Table: -2, Chunk: int32(grp.g)}, outSchema, 0)
	for k := 0; k < buckets; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if lp.rows[k] == 0 || rp.rows[k] == 0 {
			// An empty side produces nothing; skip reading the other.
			continue
		}
		left, err := lp.readBucket(k)
		if err != nil {
			return err
		}
		right, err := rp.readBucket(k)
		if err != nil {
			return err
		}
		if err := e.joinPair(cn, grp, fmt.Sprintf("b%d", k), left, right, req, wf, memCap, out, stats); err != nil {
			return err
		}
		if req.Progress != nil {
			req.Progress.Joined.Add(1)
		}
		if req.Sink != nil {
			// Stream this bucket pair's output. Emit hands ownership of the
			// batch to the sink, so start a fresh table for the next pair.
			if out.NumRows() > 0 {
				if err := req.Sink.Emit(grp.g, out); err != nil {
					return err
				}
				out = tuple.NewSubTable(tuple.ID{Table: -2, Chunk: int32(grp.g)}, outSchema, 0)
			}
		} else {
			out.Reset()
		}
		if err := lp.deleteBucket(k); err != nil {
			return err
		}
		if err := rp.deleteBucket(k); err != nil {
			return err
		}
	}
	return nil
}

// overflow recursion bounds.
const (
	overflowFanout   = 8
	overflowMaxDepth = 3
)

// joinPair joins one bucket pair. A build side that fits the cap joins
// in memory on the historical fast path; one that overflows goes
// through the shared out-of-core join (hashjoin.JoinPairSpill), which
// recursively repartitions the build side with the salted hash h3,
// round-tripping each partition through the joiner's scratch disk
// exactly as a memory-constrained node would, so the modeled I/O cost
// of skew is paid. Past overflowMaxDepth (pathological duplicate keys
// that no hash can split) the residual partition builds oversized as a
// fallback. The spilled join's output is byte-identical to the
// in-memory path at any cap.
func (e *Engine) joinPair(cn *cluster.ComputeNode, grp *group, label string,
	left, right *tuple.SubTable, req engine.Request, wf int, memCap int64,
	out *tuple.SubTable, stats *hashjoin.Stats) error {

	lp := grp.lp
	if memCap > 0 && int64(left.Bytes()) > memCap {
		hooks := hashjoin.SpillHooks{
			RoundTrip: func(lbl string, st *tuple.SubTable) (*tuple.SubTable, error) {
				return grp.roundTrip(lbl, st)
			},
			Built: func(lbl string, st *tuple.SubTable, start time.Time) {
				cn.SpendCPU(int64(st.NumRows()) * int64(wf))
				lp.obs.Build(int64(st.NumRows())*int64(wf), time.Since(start))
				req.Trace.Span(lp.node, trace.KindBuild, lbl, start,
					int64(st.Bytes()), int64(st.NumRows()))
			},
			Probed: func(lbl string, st *tuple.SubTable, start time.Time) {
				cn.SpendCPU(int64(st.NumRows()) * int64(wf))
				lp.obs.Probe(int64(st.NumRows())*int64(wf), time.Since(start))
				req.Trace.Span(lp.node, trace.KindProbe, lbl, start,
					int64(st.Bytes()), int64(st.NumRows()))
			},
		}
		_, _, err := hashjoin.JoinPairSpill(left, right, req.JoinAttrs, label,
			wf, req.Parallelism, memCap, overflowFanout, overflowMaxDepth,
			h3, hooks, out, stats)
		return err
	}

	buildStart := time.Now()
	ht, err := hashjoin.BuildParallel(left, req.JoinAttrs, wf, req.Parallelism, stats)
	if err != nil {
		return err
	}
	cn.SpendCPU(int64(left.NumRows()) * int64(wf))
	lp.obs.Build(int64(left.NumRows())*int64(wf), time.Since(buildStart))
	req.Trace.Span(lp.node, trace.KindBuild, label, buildStart,
		int64(left.Bytes()), int64(left.NumRows()))
	probeStart := time.Now()
	if _, err := ht.ProbeParallel(right, req.JoinAttrs, wf, req.Parallelism, out, stats); err != nil {
		return err
	}
	cn.SpendCPU(int64(right.NumRows()) * int64(wf))
	lp.obs.Probe(int64(right.NumRows())*int64(wf), time.Since(probeStart))
	req.Trace.Span(lp.node, trace.KindProbe, label, probeStart,
		int64(right.Bytes()), int64(right.NumRows()))
	return nil
}

// roundTrip spills a repartitioned build partition to the group's
// scratch disk and reads it back (size-verified), paying the modeled
// I/O an out-of-core repartition costs.
func (grp *group) roundTrip(label string, st *tuple.SubTable) (*tuple.SubTable, error) {
	f := grp.mgr.Create("ov-" + label)
	data := encodeRows(st)
	err := f.AppendRows(data, int64(st.NumRows()))
	tuple.PutBuf(data)
	if err != nil {
		return nil, err
	}
	back, err := f.ReadAll()
	if err != nil {
		return nil, err
	}
	out, err := decodeRows(st.Schema, back, st.ID.Chunk)
	grp.mgr.Release(f)
	return out, err
}

// filterFor keeps only constraints naming attributes of def's schema.
func filterFor(def *metadata.TableDef, f metadata.Range) metadata.Range {
	var out metadata.Range
	for i, a := range f.Attrs {
		if def.Schema.Index(a) < 0 {
			continue
		}
		out.Attrs = append(out.Attrs, a)
		out.Lo = append(out.Lo, f.Lo[i])
		out.Hi = append(out.Hi, f.Hi[i])
	}
	return out
}
