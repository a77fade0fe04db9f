package main

import (
	"context"
	"fmt"
	"math/rand"

	"sciview"
	"sciview/internal/engine"
	"sciview/internal/metrics"
	"sciview/internal/planner"
	"sciview/internal/service"
	"sciview/internal/trace"
)

// env is one set-up workload: the system under test, its service, one
// executor per client, and the reference results every measured query is
// checked against.
type env struct {
	w      *workload
	sys    *sciview.System
	svc    *service.Service
	reg    *metrics.Registry // traced runs only
	corpus []stmt
	execs  []*planner.Executor
	recs   []*trace.Recorder // per-client span recorders (traced runs only)
	seqs   [][]int           // per-client statement order; pinnedIdx marks the pinned join
	// refs holds the reference results by dataset version.
	refs map[int64]refSet

	// Ingest-while-querying state (w.steps > 0).
	batches      []*sciview.Batch
	ingestor     *sciview.Ingestor
	live         *sciview.LiveView
	base         int64 // dataset version the run starts at
	pinned       service.Query
	pinnedTuples int64
}

type refSet struct {
	stmts []*reference
	full  *reference
}

// pinnedIdx is the sequence entry for the raw join pinned to the base
// version.
const pinnedIdx = -1

// setup builds a workload's dataset, system, service and references from
// the seed, then warms every client's executor with one pass of the
// corpus. traced attaches a metrics registry and per-client span
// recorders.
func setup(w *workload, seed int64, traced bool) (*env, error) {
	e := &env{w: w, refs: make(map[int64]refSet)}
	rng := rand.New(rand.NewSource(seed))
	e.corpus = w.corpus(rng)

	dspec := sciview.OilReservoirSpec{
		Grid: w.grid, LeftPart: w.left, RightPart: w.right,
		StorageNodes: w.cluster.StorageNodes, Seed: seed,
	}
	var ds *sciview.Dataset
	var err error
	if w.steps > 0 {
		if ds, e.batches, err = sciview.GenerateOilReservoirSteps(dspec, w.steps); err != nil {
			return nil, err
		}
		if err := e.stepReferences(dspec); err != nil {
			return nil, err
		}
	} else {
		if ds, err = sciview.GenerateOilReservoir(dspec); err != nil {
			return nil, err
		}
		ref, err := referenceSystem(ds, w.cluster)
		if err != nil {
			return nil, err
		}
		stmts, full, err := referencesOn(ref, e.corpus, w.grid)
		ref.Close()
		if err != nil {
			return nil, err
		}
		e.refs[ref.DatasetVersion()] = refSet{stmts, full}
	}

	spec, cfg := w.cluster, w.svc
	if traced {
		e.reg = metrics.NewRegistry()
		spec.Metrics, cfg.Metrics = e.reg, e.reg
	}
	if e.sys, err = sciview.NewSystem(ds, spec); err != nil {
		return nil, err
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = w.clients
	}
	e.svc = service.New(e.sys.Cluster(), cfg)

	for c := 0; c < w.clients; c++ {
		ex := e.svc.Executor()
		if _, err := ex.Exec(viewDDL); err != nil {
			e.close()
			return nil, err
		}
		var rec *trace.Recorder
		if traced {
			rec = trace.New()
			ex.Trace = rec
		}
		e.execs = append(e.execs, ex)
		e.recs = append(e.recs, rec)
		seq := rng.Perm(len(e.corpus))
		if w.pinned {
			seq = append(seq, pinnedIdx, pinnedIdx)
			rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		}
		e.seqs = append(e.seqs, seq)
	}
	e.base = e.sys.DatasetVersion()
	if w.steps > 0 {
		if err := e.setupIngest(); err != nil {
			e.close()
			return nil, err
		}
	}

	// Warm-up: one pass of the corpus per client fills the caches and
	// feeds the planner's calibration before anything is timed.
	ctx := context.Background()
	for c, ex := range e.execs {
		for i, s := range e.corpus {
			resp, err := e.svc.SubmitSQL(ctx, ex, service.SQL{Query: s.sql})
			if err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up %q: %w", s.sql, err)
			}
			if e.judgeSQL(i, resp, e.base, e.base) == wrong {
				e.close()
				return nil, fmt.Errorf("warm-up %q: result differs from the IJ reference", s.sql)
			}
		}
		e.recs[c].Reset()
	}
	return e, nil
}

// stepReferences computes the references at every dataset version the
// ingest schedule will produce, on an independently generated copy of the
// dataset that appends the same batches.
func (e *env) stepReferences(dspec sciview.OilReservoirSpec) error {
	ds, batches, err := sciview.GenerateOilReservoirSteps(dspec, e.w.steps)
	if err != nil {
		return err
	}
	ref, err := referenceSystem(ds, e.w.cluster)
	if err != nil {
		return err
	}
	defer ref.Close()
	in, err := ref.Ingestor(0)
	if err != nil {
		return err
	}
	// The base covers all but the withheld time-step slabs of the grid's
	// Z extent; each appended batch adds one slab.
	slab := lcm(e.w.left.Z, e.w.right.Z)
	for i := 0; ; i++ {
		g := e.w.grid
		g.Z -= (len(batches) - i) * slab
		stmts, full, err := referencesOn(ref, e.corpus, g)
		if err != nil {
			return err
		}
		e.refs[ref.DatasetVersion()] = refSet{stmts, full}
		if i == len(batches) {
			return nil
		}
		if _, err := in.Append(batches[i]); err != nil {
			return err
		}
	}
}

func lcm(a, b int) int {
	g, r := a, b
	for r != 0 {
		g, r = r, g%r
	}
	return a / g * b
}

// setupIngest materializes V1 as a live view, opens the append path and
// baselines the pinned raw join at the base version.
func (e *env) setupIngest() error {
	if _, err := e.sys.Exec(viewDDL); err != nil {
		return err
	}
	var err error
	if e.live, err = e.sys.MaterializeView("V1"); err != nil {
		return err
	}
	if e.ingestor, err = e.sys.Ingestor(0); err != nil {
		return err
	}
	e.pinned = service.Query{Req: engine.Request{
		LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y", "z"}, AsOf: e.base,
	}}
	resp, err := e.svc.Submit(context.Background(), e.pinned)
	if err != nil {
		return fmt.Errorf("pinned baseline: %w", err)
	}
	e.pinnedTuples = resp.Result.Tuples
	if want := int64(len(e.refs[e.base].full.rows)); e.pinnedTuples != want {
		return fmt.Errorf("pinned baseline: %d tuples, reference %d", e.pinnedTuples, want)
	}
	return nil
}

// judgeSQL checks a SubmitSQL response against the references of every
// dataset version between vlo and vhi (the versions the statement could
// have been pinned to) and reports the best verdict.
func (e *env) judgeSQL(idx int, resp *service.Response, vlo, vhi int64) verdict {
	gh := resp.Decision != nil && resp.Decision.Chosen == "gh"
	fp := fingerprint(resp.Rows.Schema.Names(), resp.Rows)
	for v := vlo; v <= vhi; v++ {
		if rs, ok := e.refs[v]; ok && rs.stmts[idx].fp == fp {
			return exact
		}
	}
	if !gh {
		return wrong
	}
	cols, rows := subTableRows(resp.Rows)
	for v := vlo; v <= vhi; v++ {
		if rs, ok := e.refs[v]; ok && ghEquivalent(rs.stmts[idx], rs.full, e.corpus[idx].limit, cols, rows) {
			return inexact
		}
	}
	return wrong
}

// close releases the environment's service and system.
func (e *env) close() {
	if e.svc != nil {
		e.svc.Close()
	}
	if e.live != nil {
		e.live.Close()
	}
	if e.sys != nil {
		e.sys.Close()
	}
}
