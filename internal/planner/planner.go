// Package planner implements the Query Planning Service: it derives the
// cost-model parameters of a join-view query from the catalog and cluster
// configuration, predicts both QES run times, chooses the faster engine,
// and executes SQL statements end to end (view creation, scans, joins, and
// aggregation).
package planner

import (
	"fmt"

	"sciview/internal/cluster"
	"sciview/internal/congraph"
	"sciview/internal/costmodel"
	"sciview/internal/engine"
	"sciview/internal/gh"
	"sciview/internal/ij"
	"sciview/internal/metadata"
	"sciview/internal/tuple"
)

// Planner is the Query Planning Service.
type Planner struct {
	// AlphaBuild and AlphaLookup are the host-calibrated CPU constants in
	// seconds/tuple — the static layer's starting point. Zero values
	// trigger a one-time calibration.
	AlphaBuild  float64
	AlphaLookup float64
	// Force overrides the cost-model decision: "", "ij" or "gh".
	Force string
	// Est is the layered cost estimator: Decide derives static Params as
	// always, then lets Est substitute live-calibrated constants once
	// enough runs have been observed (Observe feeds it). New installs
	// one; set nil to pin decisions to the static configuration layer.
	Est *costmodel.Estimator

	ijEngine engine.Engine
	ghEngine engine.Engine
}

// New returns a planner with lazily calibrated CPU constants and a fresh
// online calibration layer.
func New() *Planner {
	return &Planner{Est: costmodel.NewEstimator(), ijEngine: ij.New(), ghEngine: gh.New()}
}

// Decision records why an engine was chosen. Params holds the constants
// the predictions actually used (post-calibration when the estimator has
// graduated signals); Constants and Calibrated record the provenance.
type Decision struct {
	Params    costmodel.Params
	PredictIJ costmodel.Breakdown
	PredictGH costmodel.Breakdown
	Chosen    string
	Forced    bool
	// Calibrated reports whether any live-calibrated constant displaced
	// its static counterpart in Params.
	Calibrated bool
	// Constants is the estimator snapshot the decision consulted (zero
	// when the planner has no estimator).
	Constants costmodel.Constants
}

// calibrate fills the CPU constants if unset.
func (p *Planner) calibrate() {
	if p.AlphaBuild <= 0 || p.AlphaLookup <= 0 {
		p.AlphaBuild, p.AlphaLookup = costmodel.Calibrate(1 << 16)
	}
}

// ParamsFor derives the Table 1 parameters of a request against a cluster:
// tuple counts and record sizes from the catalog, the connectivity edge
// count from the page-level join index, node counts and bandwidths from the
// cluster configuration.
func (p *Planner) ParamsFor(cl *cluster.Cluster, req engine.Request) (costmodel.Params, error) {
	if err := req.Validate(); err != nil {
		return costmodel.Params{}, err
	}
	p.calibrate()
	leftDef, err := cl.Catalog.Table(req.LeftTable)
	if err != nil {
		return costmodel.Params{}, err
	}
	rightDef, err := cl.Catalog.Table(req.RightTable)
	if err != nil {
		return costmodel.Params{}, err
	}
	leftFilter := filterFor(leftDef.Schema, req.Filter)
	leftFilter.Versions = req.LeftWindow()
	rightFilter := filterFor(rightDef.Schema, req.Filter)
	rightFilter.Versions = req.RightWindow()
	leftDescs, err := cl.Catalog.ChunksInRange(req.LeftTable, leftFilter)
	if err != nil {
		return costmodel.Params{}, err
	}
	rightDescs, err := cl.Catalog.ChunksInRange(req.RightTable, rightFilter)
	if err != nil {
		return costmodel.Params{}, err
	}
	if len(leftDescs) == 0 || len(rightDescs) == 0 {
		return costmodel.Params{}, fmt.Errorf("planner: no chunks in range (left %d, right %d)",
			len(leftDescs), len(rightDescs))
	}
	graph, err := congraph.Build(leftDescs, rightDescs, req.JoinAttrs)
	if err != nil {
		return costmodel.Params{}, err
	}
	var leftRows, rightRows int64
	for _, d := range leftDescs {
		leftRows += int64(d.Rows)
	}
	for _, d := range rightDescs {
		rightRows += int64(d.Rows)
	}
	cfg := cl.Config
	alphaBuild := p.AlphaBuild + cfg.CPUSecPerOp
	alphaLookup := p.AlphaLookup + cfg.CPUSecPerOp
	// Projection pushdown shrinks the records that actually travel; the
	// models must price the projected sizes or they would mis-rank the
	// engines for narrow queries.
	project := req.EffectiveProject()
	return costmodel.Params{
		T:           leftRows,
		CR:          leftRows / int64(len(leftDescs)),
		CS:          rightRows / int64(len(rightDescs)),
		Ne:          int64(graph.NumEdges()),
		RSR:         engine.ProjectedSchema(leftDef.Schema, project).RecordSize(),
		RSS:         engine.ProjectedSchema(rightDef.Schema, project).RecordSize(),
		Ns:          cfg.StorageNodes,
		Nj:          cfg.ComputeNodes,
		NetBw:       cfg.NetAggregateBw(),
		ReadBw:      cfg.DiskReadBw,
		WriteBw:     cfg.DiskWriteBw,
		AlphaBuild:  alphaBuild,
		AlphaLookup: alphaLookup,
		WorkFactor:  req.WorkFactor,
	}, nil
}

// Decide derives the static Params, applies the estimator's graduated
// live constants, predicts both engines from the resulting model, and
// picks the faster one (honoring Force). The returned Decision carries
// full provenance — the applied Params, both predictions, and whether
// calibrated constants displaced configured ones — and every decision is
// counted in the estimator's decision metric.
func (p *Planner) Decide(cl *cluster.Cluster, req engine.Request) (engine.Engine, *Decision, error) {
	params, err := p.ParamsFor(cl, req)
	if err != nil {
		return nil, nil, err
	}
	d := &Decision{}
	if p.Est != nil {
		params, d.Constants = p.Est.Apply(params)
		d.Calibrated = d.Constants.AnyLive()
	}
	d.Params = params
	if cl.Config.SharedFS {
		d.PredictIJ = params.IJSharedFS()
		d.PredictGH = params.GHSharedFS()
	} else {
		d.PredictIJ = params.IJ()
		d.PredictGH = params.GH()
	}
	var eng engine.Engine
	switch p.Force {
	case "ij":
		d.Chosen, d.Forced = "ij", true
		eng = p.ijEngine
	case "gh":
		d.Chosen, d.Forced = "gh", true
		eng = p.ghEngine
	case "":
		// Ties (e.g. unlimited I/O makes the spill penalty vanish) go to
		// IJ, which never does extra work the model cannot see.
		if d.PredictIJ.Total <= d.PredictGH.Total {
			d.Chosen, eng = "ij", p.ijEngine
		} else {
			d.Chosen, eng = "gh", p.ghEngine
		}
	default:
		return nil, nil, fmt.Errorf("planner: unknown forced engine %q", p.Force)
	}
	p.Est.RecordDecision(d.Chosen, d.Forced, d.Calibrated)
	return eng, d, nil
}

// Choose is Decide under its historical name, kept for the existing call
// sites.
func (p *Planner) Choose(cl *cluster.Cluster, req engine.Request) (engine.Engine, *Decision, error) {
	return p.Decide(cl, req)
}

// Observe closes the loop: it feeds a finished run's measured costs into
// the estimator's calibration layer. Safe on nil results, nil planners,
// and planners without an estimator.
func (p *Planner) Observe(res *engine.Result) {
	if p == nil || p.Est == nil || res == nil {
		return
	}
	o := res.Observed
	p.Est.Observe(costmodel.Observation{
		Engine:            res.Engine,
		FetchBytes:        o.FetchBytes,
		FetchSeconds:      o.FetchSeconds,
		BuildTuples:       o.BuildTuples,
		BuildSeconds:      o.BuildSeconds,
		ProbeTuples:       o.ProbeTuples,
		ProbeSeconds:      o.ProbeSeconds,
		SpillWriteBytes:   o.SpillWriteBytes,
		SpillWriteSeconds: o.SpillWriteSeconds,
		SpillReadBytes:    o.SpillReadBytes,
		SpillReadSeconds:  o.SpillReadSeconds,
	})
}

// filterFor keeps the constraints applicable to one schema (mirrors the
// per-engine behaviour so predictions see the same chunk sets).
func filterFor(schema tuple.Schema, f metadata.Range) metadata.Range {
	var out metadata.Range
	for i, a := range f.Attrs {
		if schema.Index(a) < 0 {
			continue
		}
		out.Attrs = append(out.Attrs, a)
		out.Lo = append(out.Lo, f.Lo[i])
		out.Hi = append(out.Hi, f.Hi[i])
	}
	return out
}
