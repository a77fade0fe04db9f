// Package ij implements the page-level Indexed Join QES.
//
// The sub-table connectivity graph (page-level join index) gives the
// candidate sub-table pairs. Scheduling follows the paper's two-stage
// strategy: connected components are dealt round-robin to compute-node QES
// instances so each gets the same amount of work, then each instance sorts
// its local id pairs lexicographically by ((i1,j1),(i2,j2)). Sub-tables are
// fetched from BDS instances through the per-node LRU Caching Service; the
// lexicographic order makes all edges of one left sub-table consecutive, so
// a hash table is built only once per left sub-table.
package ij

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/congraph"
	"sciview/internal/engine"
	"sciview/internal/fault"
	"sciview/internal/hashjoin"
	"sciview/internal/metadata"
	"sciview/internal/scratch"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// Schedule selects the edge-scheduling strategy. The paper's two-stage
// strategy is the default; the alternatives exist as ablations of its
// design choices (see the harness's schedule ablation).
type Schedule int

const (
	// ScheduleComponent is the paper's strategy: components dealt
	// round-robin to joiners, edges sorted lexicographically within each
	// component and components processed one after another.
	ScheduleComponent Schedule = iota
	// ScheduleGlobalLex deals components round-robin but sorts each
	// joiner's full edge list lexicographically, interleaving components
	// and breaking the working-set guarantee.
	ScheduleGlobalLex
	// ScheduleRandom ignores components entirely: edges are dealt
	// round-robin in a deterministic shuffled order, so sub-tables are
	// fetched by several joiners and locality is destroyed.
	ScheduleRandom
	// ScheduleOPAS applies an Optimal-Page-Access-Sequence-style greedy
	// heuristic (the related work's approach) to each joiner's edges,
	// simulating the node cache to pick the cheapest next edge.
	ScheduleOPAS
)

func (s Schedule) String() string {
	switch s {
	case ScheduleComponent:
		return "component"
	case ScheduleGlobalLex:
		return "global-lex"
	case ScheduleRandom:
		return "random"
	case ScheduleOPAS:
		return "opas"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Engine is the Indexed Join QES. The zero value is ready to use and uses
// the paper's scheduling strategy.
type Engine struct {
	// Schedule overrides the edge-scheduling strategy (ablations only).
	Schedule Schedule
}

// New returns an Indexed Join engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "ij" }

// edge is a scheduled sub-table pair with resolved ids.
type edge struct {
	left  tuple.ID
	right tuple.ID
}

// Run implements engine.Engine.
func (e *Engine) Run(cl *cluster.Cluster, req engine.Request) (*engine.Result, error) {
	return e.RunContext(context.Background(), cl, req)
}

// RunContext implements engine.Engine. Cancellation is observed between
// scheduled edges and inside sub-table fetches.
func (e *Engine) RunContext(ctx context.Context, cl *cluster.Cluster, req engine.Request) (*engine.Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	wf := req.WorkFactor
	if wf < 1 {
		wf = 1
	}
	leftDef, err := cl.Catalog.Table(req.LeftTable)
	if err != nil {
		return nil, err
	}
	rightDef, err := cl.Catalog.Table(req.RightTable)
	if err != nil {
		return nil, err
	}
	leftFilter := engineFilterFor(leftDef, req.Filter)
	leftFilter.Versions = req.LeftWindow()
	rightFilter := engineFilterFor(rightDef, req.Filter)
	rightFilter.Versions = req.RightWindow()

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

	// Consult the (pre-computable) page-level join index: resolve in-range
	// chunks and their connectivity.
	leftDescs, err := cl.Catalog.ChunksInRange(req.LeftTable, leftFilter)
	if err != nil {
		return nil, err
	}
	rightDescs, err := cl.Catalog.ChunksInRange(req.RightTable, rightFilter)
	if err != nil {
		return nil, err
	}
	graph, err := congraph.Build(leftDescs, rightDescs, req.JoinAttrs)
	if err != nil {
		return nil, err
	}
	comps := graph.Components()

	nj := len(cl.Compute)
	schedules := e.buildSchedules(comps, leftDescs, rightDescs, nj, cl.Config.CacheBytes)

	// The per-edge build-side memory cap from the request's admission
	// budget: each joiner may hold a build and a probe sub-table at once,
	// hence the 2·nj divisor. 0 = unbounded (no admission budget set).
	var memCap int64
	if req.MemoryBudget > 0 {
		memCap = req.MemoryBudget / int64(2*nj)
		if memCap < 1 {
			memCap = 1
		}
	}

	// Publish the schedule size so streaming consumers can report the
	// fraction of edges an early-terminated query actually joined. Joined
	// counts executed edges, so fault-driven replays can push it past
	// Total; an undisturbed full run ends with Joined == Total.
	prog := req.Progress
	if prog == nil {
		prog = &engine.Progress{}
		req.Progress = prog
	}
	for _, sched := range schedules {
		prog.Total.Add(int64(len(sched)))
	}

	project := req.EffectiveProject()
	outSchema := engine.ProjectedSchema(leftDef.Schema, project).
		JoinResult(engine.ProjectedSchema(rightDef.Schema, project), req.JoinAttrs, "r_")
	var stats hashjoin.Stats
	obs := &engine.ObsCollector{}
	errs := make([]error, nj)
	var wg sync.WaitGroup
	for slot := 0; slot < nj; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			errs[slot] = e.runSlot(ctx, cl, slot, schedules[slot], req, wf, memCap,
				leftFilter, rightFilter, project, outSchema, &stats, obs)
		}(slot)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

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
		Phases:  map[string]time.Duration{},
	}
	res.Tuples = res.Join.Matches
	res.UnitsJoined = prog.Joined.Load()
	res.UnitsTotal = prog.Total.Load()
	res.Observed = obs.Snapshot()
	for _, cn := range cl.Compute {
		s := cn.Cache.Stats()
		res.Cache.Hits += s.Hits
		res.Cache.Misses += s.Misses
		res.Cache.Evictions += s.Evictions
	}
	return res, nil
}

// buildSchedules assigns edges to joiner nodes per the engine's strategy.
//
// The default (ScheduleComponent) is the paper's two-stage strategy.
// Stage 1 deals connected components round-robin to joiner nodes, so every
// QES instance gets the same amount of work. Stage 2 sorts the id pairs of
// each component lexicographically by ((i1,j1),(i2,j2)) and processes
// components one after another. Component-local order is what gives the
// paper's no-eviction guarantee under the memory assumption
// (cache ≥ 2·c_R + b·c_S): a component's right sub-tables stay cached
// while its left sub-tables stream through once each.
func (e *Engine) buildSchedules(comps []congraph.Component, leftDescs, rightDescs []*chunk.Desc, nj int, cacheBytes int64) [][]edge {
	if e.Schedule == ScheduleOPAS {
		return opasSchedules(comps, leftDescs, rightDescs, nj, cacheBytes)
	}
	schedules := make([][]edge, nj)
	mk := func(ce congraph.Edge) edge {
		return edge{left: leftDescs[ce.Left].ID(), right: rightDescs[ce.Right].ID()}
	}
	lexSort := func(sched []edge) {
		sort.Slice(sched, func(a, b int) bool {
			if sched[a].left != sched[b].left {
				return sched[a].left.Less(sched[b].left)
			}
			return sched[a].right.Less(sched[b].right)
		})
	}
	switch e.Schedule {
	case ScheduleGlobalLex:
		for k, comp := range comps {
			j := k % nj
			for _, ce := range comp.Edges {
				schedules[j] = append(schedules[j], mk(ce))
			}
		}
		for _, sched := range schedules {
			lexSort(sched)
		}
	case ScheduleRandom:
		var all []edge
		for _, comp := range comps {
			for _, ce := range comp.Edges {
				all = append(all, mk(ce))
			}
		}
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
		for i, ed := range all {
			schedules[i%nj] = append(schedules[i%nj], ed)
		}
	default: // ScheduleComponent
		for k, comp := range comps {
			j := k % nj
			start := len(schedules[j])
			for _, ce := range comp.Edges {
				schedules[j] = append(schedules[j], mk(ce))
			}
			lexSort(schedules[j][start:])
		}
	}
	return schedules
}

// runSlot drives one schedule slot to completion. The slot's executor is
// initially the compute node of the same index; if that node dies mid-run
// (detected by a NodeDownError naming it), the stage-1 plan is revised in
// place — the slot's whole component schedule is re-run on the next
// surviving node. Re-running from the top is safe: per-attempt output and
// join stats are discarded on failure and merged only on success, edges
// replay in the same order, and survivors' caches stay valid (warm, even,
// for sub-tables the slot shares with their own schedules), so the
// recovered output is byte-identical to an undisturbed run.
func (e *Engine) runSlot(ctx context.Context, cl *cluster.Cluster, slot int, sched []edge, req engine.Request,
	wf int, memCap int64, leftFilter, rightFilter metadata.Range, project []string, outSchema tuple.Schema,
	stats *hashjoin.Stats, obs *engine.ObsCollector) error {

	exec := slot
	for {
		if cl.ComputeDown(exec) {
			next, ok := nextAlive(cl, exec)
			if !ok {
				return fmt.Errorf("ij: slot %d: no compute nodes left", slot)
			}
			exec = next
		}
		var local hashjoin.Stats
		err := e.runJoiner(ctx, cl, slot, exec, sched, req, wf, memCap,
			leftFilter, rightFilter, project, outSchema, &local, obs)
		if err == nil {
			mergeStats(stats, &local)
			if req.Sink != nil {
				req.Sink.Done(slot)
			}
			return nil
		}
		if node, down := fault.IsNodeDown(err); down && node == fault.ComputeNode(exec) {
			// The executor itself died. Discard its partial work and hand
			// the slot to a survivor.
			if req.Sink != nil {
				req.Sink.Discard(slot)
			}
			cl.Health.Recoveries.Add(1)
			start := time.Now()
			req.Trace.Span(fmt.Sprintf("joiner-%d", slot), trace.KindRecover,
				fmt.Sprintf("compute-%d died, slot re-assigned", exec), start, 0, int64(len(sched)))
			continue
		}
		return err
	}
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

// mergeStats folds a slot attempt's local counters into the run total.
func mergeStats(dst, src *hashjoin.Stats) {
	dst.TuplesBuilt.Add(src.TuplesBuilt.Load())
	dst.TuplesProbed.Add(src.TuplesProbed.Load())
	dst.Matches.Add(src.Matches.Load())
}

// runJoiner executes one slot's schedule on compute node exec. Output
// batches keep the slot's id, so results do not depend on which node ran
// the work.
//
// With req.Prefetch > 0 the joiner overlaps I/O with compute: before
// working edge i it issues background cachedFetch calls for this edge's
// right sub-table and both sub-tables of edges i+1..i+Prefetch. Stage-2's
// lexicographic edge order makes the lookahead exact — the fetches issued
// are precisely the ones the strict loop would issue next — and the Flight
// singleflight makes the foreground fetch join the in-flight prefetch
// rather than duplicate it. Prefetch failures are swallowed here: the
// foreground fetch retries and surfaces any real error, and on early exit
// (error, cancellation, injected crash) the deferred cancel-and-wait below
// reaps every in-flight prefetch before the slot is re-assigned.
func (e *Engine) runJoiner(ctx context.Context, cl *cluster.Cluster, slot, exec int, sched []edge, req engine.Request,
	wf int, memCap int64, leftFilter, rightFilter metadata.Range, project []string, outSchema tuple.Schema,
	stats *hashjoin.Stats, obs *engine.ObsCollector) error {

	out := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(slot)}, outSchema, 0)
	cn := cl.Compute[exec]
	node := fmt.Sprintf("joiner-%d", slot)
	// Lazily-mounted scratch manager for build sides that overflow the
	// memory cap; reaped when the attempt ends, however it ends.
	var mgr *scratch.Manager
	spillMgr := func() *scratch.Manager {
		if mgr == nil {
			mgr = scratch.NewManager(cn.Scratch,
				fmt.Sprintf("ij/r%d/s%d", spillSeq.Add(1), slot), node, req.Trace, obs)
		}
		return mgr
	}
	defer func() {
		if mgr != nil {
			mgr.ReleaseAll()
		}
	}()
	leftSig := cluster.Signature(&leftFilter, project)
	rightSig := cluster.Signature(&rightFilter, project)

	depth := req.Prefetch
	var (
		pwg     sync.WaitGroup
		pctx    context.Context
		pcancel context.CancelFunc
		issued  map[cluster.FetchKey]struct{}
	)
	if depth > 0 {
		pctx, pcancel = context.WithCancel(ctx)
		defer pwg.Wait() // runs after pcancel: cancel, then reap
		defer pcancel()
		issued = make(map[cluster.FetchKey]struct{})
	}
	// prefetch launches one background fetch per distinct key; issued is
	// only touched by the foreground loop. The background path peeks the
	// cache stat-free and joins the Flight group, so the cache hit/miss
	// counters keep reflecting foreground demand only: a sub-table still
	// in flight when the joiner needs it counts as the same single miss
	// the strict loop would record.
	prefetch := func(id tuple.ID, sig uint64, filter *metadata.Range) {
		key := cluster.FetchKey{ID: id, Sig: sig}
		if _, done := issued[key]; done {
			return
		}
		issued[key] = struct{}{}
		if _, ok := cn.Cache.Peek(key); ok {
			return
		}
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			start := time.Now()
			f, err := e.flightFetch(pctx, cl, exec, node, key, id, filter, project, req.Trace, obs)
			if err != nil {
				return
			}
			req.Trace.Span(node, trace.KindPrefetch, id.String(), start,
				int64(f.DecodedBytes()), int64(f.NumRows()))
		}()
	}

	var (
		ht     *hashjoin.HashTable
		htLeft tuple.ID
		haveHT bool
	)
	for i, ed := range sched {
		if err := ctx.Err(); err != nil {
			return err
		}
		// One scheduled edge is one countable operation on the executor:
		// the chaos schedule can crash the node here, mid-schedule.
		if err := cl.Config.Faults.Op(fault.ComputeNode(exec), fault.OpEdge); err != nil {
			return err
		}
		if depth > 0 {
			prefetch(ed.right, rightSig, &rightFilter) // overlaps this edge's build
			for d := 1; d <= depth && i+d < len(sched); d++ {
				prefetch(sched[i+d].left, leftSig, &leftFilter)
				prefetch(sched[i+d].right, rightSig, &rightFilter)
			}
		}
		left, err := e.cachedFetch(ctx, cl, exec, node, ed.left, leftSig, &leftFilter, project, req.Trace, obs)
		if err != nil {
			return err
		}
		if memCap > 0 && int64(left.Bytes()) > memCap {
			// Out-of-core edge: the build side exceeds its admission share.
			// The shared spilled join bounds the build, round-tripping
			// partitions through this joiner's scratch disk; its output is
			// byte-identical to the in-memory probe. The cached hash table
			// is not built (or reused) for an oversized left sub-table.
			haveHT = false
			right, err := e.cachedFetch(ctx, cl, exec, node, ed.right, rightSig, &rightFilter, project, req.Trace, obs)
			if err != nil {
				return err
			}
			if err := spillEdge(cn, spillMgr(), node, ed, left, right, req, wf, memCap, out, stats, obs); err != nil {
				return err
			}
			if err := finishEdge(slot, req, &out, outSchema); err != nil {
				return err
			}
			continue
		}
		if !haveHT || htLeft != ed.left {
			start := time.Now()
			ht, err = hashjoin.BuildParallel(left, req.JoinAttrs, wf, req.Parallelism, stats)
			if err != nil {
				return err
			}
			htLeft, haveHT = ed.left, true
			cn.SpendCPU(int64(left.NumRows()) * int64(wf))
			obs.Build(int64(left.NumRows())*int64(wf), time.Since(start))
			req.Trace.Span(node, trace.KindBuild, ed.left.String(), start,
				int64(left.Bytes()), int64(left.NumRows()))
		}
		right, err := e.cachedFetch(ctx, cl, exec, node, ed.right, rightSig, &rightFilter, project, req.Trace, obs)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := ht.ProbeParallel(right, req.JoinAttrs, wf, req.Parallelism, out, stats); err != nil {
			return err
		}
		cn.SpendCPU(int64(right.NumRows()) * int64(wf))
		obs.Probe(int64(right.NumRows())*int64(wf), time.Since(start))
		req.Trace.Span(node, trace.KindProbe, ed.right.String(), start,
			int64(right.Bytes()), int64(right.NumRows()))
		if err := finishEdge(slot, req, &out, outSchema); err != nil {
			return err
		}
	}
	return nil
}

// spillSeq namespaces the scratch files of concurrent spilling joiners.
var spillSeq atomic.Int64

// spillPart is the salted partition hash for recursive build-side
// splits (splitmix-style avalanche; the salt decorrelates depths).
func spillPart(key, salt uint64) uint64 {
	key ^= (salt + 1) * 0x9E3779B97F4A7C15
	key ^= key >> 33
	key *= 0xFF51AFD7ED558CCD
	key ^= key >> 33
	key *= 0xC4CEB9FE1A85EC53
	key ^= key >> 33
	return key
}

// Overflow recursion bounds for spilled edges.
const (
	spillFanout   = 8
	spillMaxDepth = 3
)

// spillEdge joins one oversized edge through hashjoin.JoinPairSpill,
// billing CPU, observations, and trace spans exactly like the in-memory
// path does per leaf.
func spillEdge(cn *cluster.ComputeNode, mgr *scratch.Manager, node string, ed edge,
	left, right *tuple.SubTable, req engine.Request, wf int, memCap int64,
	out *tuple.SubTable, stats *hashjoin.Stats, obs *engine.ObsCollector) error {

	hooks := hashjoin.SpillHooks{
		RoundTrip: func(lbl string, st *tuple.SubTable) (*tuple.SubTable, error) {
			f := mgr.Create("ov-" + lbl)
			data := scratch.EncodeRows(st)
			err := f.AppendRows(data, int64(st.NumRows()))
			tuple.PutBuf(data)
			if err != nil {
				return nil, err
			}
			back, err := f.ReadAll()
			if err != nil {
				return nil, err
			}
			rt, err := scratch.DecodeRows(st.Schema, back, st.ID)
			mgr.Release(f)
			return rt, err
		},
		Built: func(lbl string, st *tuple.SubTable, start time.Time) {
			cn.SpendCPU(int64(st.NumRows()) * int64(wf))
			obs.Build(int64(st.NumRows())*int64(wf), time.Since(start))
			req.Trace.Span(node, trace.KindBuild, lbl, start,
				int64(st.Bytes()), int64(st.NumRows()))
		},
		Probed: func(lbl string, st *tuple.SubTable, start time.Time) {
			cn.SpendCPU(int64(st.NumRows()) * int64(wf))
			obs.Probe(int64(st.NumRows())*int64(wf), time.Since(start))
			req.Trace.Span(node, trace.KindProbe, lbl, start,
				int64(st.Bytes()), int64(st.NumRows()))
		},
	}
	_, _, err := hashjoin.JoinPairSpill(left, right, req.JoinAttrs,
		ed.left.String()+"x"+ed.right.String(), wf, req.Parallelism,
		memCap, spillFanout, spillMaxDepth, spillPart, hooks, out, stats)
	return err
}

// finishEdge is the per-edge epilogue: progress accounting and output
// hand-off (the sink takes ownership of non-empty batches; without one
// the rows are dropped).
func finishEdge(slot int, req engine.Request, out **tuple.SubTable, outSchema tuple.Schema) error {
	if req.Progress != nil {
		req.Progress.Joined.Add(1)
	}
	if req.Sink != nil {
		if (*out).NumRows() > 0 {
			if err := req.Sink.Emit(slot, *out); err != nil {
				return err
			}
			*out = tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(slot)}, outSchema, 0)
		}
	} else {
		(*out).Reset()
	}
	return nil
}

// cachedFetch consults the joiner's Caching Service before asking the
// owning BDS instance for the sub-table. Concurrent misses on one key —
// several shared queries needing the same sub-table at once — collapse
// into a single BDS fetch through the node's Flight deduplicator. The
// cache holds wire-form carriers (compressed under the colenc codec);
// the decode back to rows here is exact, so results never depend on the
// negotiated format.
func (e *Engine) cachedFetch(ctx context.Context, cl *cluster.Cluster, j int, node string, id tuple.ID, sig uint64, filter *metadata.Range, project []string, rec *trace.Recorder, obs *engine.ObsCollector) (*tuple.SubTable, error) {
	cn := cl.Compute[j]
	key := cluster.FetchKey{ID: id, Sig: sig}
	if f, ok := cn.Cache.Get(key); ok {
		return f.SubTable()
	}
	f, err := e.flightFetch(ctx, cl, j, node, key, id, filter, project, rec, obs)
	if err != nil {
		return nil, err
	}
	return f.SubTable()
}

// flightFetch is cachedFetch after the demand-path cache probe: it joins
// the node's Flight group for key and, as leader, fetches from the owning
// BDS and populates the cache. Prefetchers enter here directly so their
// speculative lookups never touch the cache's hit/miss counters.
func (e *Engine) flightFetch(ctx context.Context, cl *cluster.Cluster, j int, node string, key cluster.FetchKey, id tuple.ID, filter *metadata.Range, project []string, rec *trace.Recorder, obs *engine.ObsCollector) (*cluster.Fetched, error) {
	cn := cl.Compute[j]
	f, _, err := cn.Flight.Do(ctx, key, func() (*cluster.Fetched, error) {
		// Another query may have populated the cache while this caller
		// was queued behind a leader that then failed or was cancelled.
		// Peek is one racy-window-free lookup (a single critical section,
		// unlike the old Contains-then-Get pair, which could observe the
		// entry and then lose it to an eviction between the two calls) and
		// is stat-free, so the common path's miss accounting stays
		// one-miss-per-fetch: only the demand-path Get above counts.
		if f, ok := cn.Cache.Peek(key); ok {
			return f, nil
		}
		start := time.Now()
		f, err := cl.FetchEncoded(ctx, j, id, filter, project)
		if err != nil {
			return nil, err
		}
		// Only the singleflight leader reaches here, so this times the
		// true wire transfer once per fetch: cache hits and piggybacked
		// followers never dilute the calibrated bandwidth. Decoded bytes
		// over wire-busy time makes compression show up as a faster
		// effective link, which is exactly how the transfer term prices it.
		obs.Fetch(int64(f.DecodedBytes()), time.Since(start))
		rec.Span(node, trace.KindFetch, id.String(), start, int64(f.DecodedBytes()), int64(f.NumRows()))
		// Charge the stored (possibly compressed) size, not the decoded
		// record size: admission and eviction track resident reality, and
		// under the colenc codec more sub-tables fit per node.
		cn.Cache.Put(key, f, int64(f.StoredBytes()))
		return f, nil
	})
	return f, err
}

// engineFilterFor keeps only the constraints naming attributes of def's
// schema — constraints on the other table's attributes do not apply here.
func engineFilterFor(def *metadata.TableDef, f metadata.Range) metadata.Range {
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

// verify interface compliance.
var _ engine.Engine = (*Engine)(nil)

// CacheBytesFor returns the per-joiner cache capacity satisfying the
// paper's memory assumption for ideal IJ behaviour: at least
// 2·c_R·RS_R + b·c_S·RS_S bytes (two left sub-tables plus one component's
// right sub-tables).
func CacheBytesFor(cR int64, rsR int, b int64, cS int64, rsS int) int64 {
	return 2*cR*int64(rsR) + b*cS*int64(rsS)
}

// String describes the engine.
func (e *Engine) String() string { return "IndexedJoin" }
