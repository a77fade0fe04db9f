package planner

import (
	"context"
	"fmt"

	"sciview/internal/plan"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

// Lowering: translating a parsed SELECT into a streaming plan
// (internal/plan). The plan's source is either the view's join — engine
// chosen by the cost model here, filter merged and projection pushed down
// into the engine request — or a chunked table scan; Aggregate or
// Project, then Sort, then Limit stack above it.

// Lowered is a parsed and lowered SELECT, ready to execute. The service
// layer lowers first to weigh admission by the plan's memory estimate,
// then executes the same plan.
type Lowered struct {
	Plan *plan.Plan
	// Decision is the cost-model record for join-backed plans (nil for
	// table scans).
	Decision *Decision
	// Join is the plan's join node, if any; its Req may be adjusted
	// (shared mode, prefetch, parallelism) before Exec.
	Join *plan.JoinNode
	// AsOf is the catalog version the statement was pinned to at lowering:
	// chunk resolution everywhere in the plan sees exactly the dataset as
	// of this version, so ingest committing between admission and execution
	// never perturbs the result (snapshot isolation).
	AsOf int64
}

// Lower parses one SELECT statement and lowers it to a plan.
func (ex *Executor) Lower(sql string) (*Lowered, error) {
	st, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	s, ok := st.(*query.Select)
	if !ok {
		return nil, fmt.Errorf("planner: only SELECT statements can be lowered, got %T", st)
	}
	return ex.lowerSelect(s)
}

// lowerSelect builds the plan for a SELECT: source (join or scan), then
// Aggregate or Project, then Sort, then Limit.
func (ex *Executor) lowerSelect(s *query.Select) (*Lowered, error) {
	star, plain, aggs, err := classifyItems(s)
	if err != nil {
		return nil, err
	}
	needed := neededAttrs(star, plain, aggs, s)

	// Pin the statement to the catalog version current at lowering. Every
	// chunk resolution below — the join engines' side filters, the cost
	// model's parameter derivation, the table scan's desc list — carries
	// this pin, so a concurrent append batch is either entirely visible
	// (committed before this line) or entirely invisible.
	asOf := ex.Cluster.Catalog.Version()

	l := &Lowered{AsOf: asOf}
	var node plan.Node
	if v, ok := ex.View(s.From); ok {
		req, err := v.Request(s.Where)
		if err != nil {
			return nil, err
		}
		req.AsOf = asOf
		req.Project = ex.pushdownFor(v, needed)
		req.Trace = ex.Trace
		eng, dec, err := ex.Planner.Choose(ex.Cluster, req)
		if err != nil {
			return nil, err
		}
		jn, err := plan.NewJoin(eng, ex.Cluster, v.Name, req, &plan.JoinCost{
			Chosen: dec.Chosen, Forced: dec.Forced, Params: dec.Params,
			PredictIJ: dec.PredictIJ, PredictGH: dec.PredictGH,
			Calibrated: dec.Calibrated, Constants: dec.Constants,
		})
		if err != nil {
			return nil, err
		}
		l.Decision, l.Join = dec, jn
		node = jn
	} else {
		sn, err := plan.NewScan(ex.Cluster, s.From, s.Where, needed, asOf)
		if err != nil {
			return nil, err
		}
		node = sn
	}

	outID := tuple.ID{Table: -1, Chunk: -1}
	if len(aggs) > 0 {
		an, err := plan.NewAggregate(node, aggs, s.GroupBy, s.Having)
		if err != nil {
			return nil, err
		}
		node = an
		outID = tuple.ID{Table: -3, Chunk: -1}
	} else if !star {
		pn, err := plan.NewProject(node, plain)
		if err != nil {
			return nil, err
		}
		node = pn
	}
	if len(s.OrderBy) > 0 {
		sn, err := plan.NewSort(node, s.OrderBy)
		if err != nil {
			return nil, err
		}
		node = sn
	}
	if s.Limit >= 0 {
		node = plan.NewLimit(node, s.Limit)
	}
	l.Plan = &plan.Plan{Root: node, OutID: outID, Trace: ex.Trace, Metrics: ex.Metrics}
	if ex.MemBudget > 0 {
		l.Plan.SetBudget(ex.MemBudget)
	}
	return l, nil
}

// ExecLowered runs a lowered plan and packages the output like Exec.
// Each call builds a fresh operator tree, so a Lowered can be executed
// repeatedly.
func (ex *Executor) ExecLowered(ctx context.Context, l *Lowered) (*Output, error) {
	rows, res, err := plan.Run(ctx, l.Plan)
	if err != nil {
		return nil, err
	}
	// Feed the run's measured costs back into the planner's calibration
	// layer, closing the decide→run→observe loop for the SQL path.
	ex.Planner.Observe(res)
	return &Output{Rows: rows, Result: res, Decision: l.Decision}, nil
}
