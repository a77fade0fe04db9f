package planner

import (
	"context"
	"fmt"
	"sync"

	"sciview/internal/cluster"
	"sciview/internal/dds"
	"sciview/internal/engine"
	"sciview/internal/metrics"
	"sciview/internal/query"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// Executor runs SQL statements against a cluster, maintaining the set of
// defined views. It is the front door the examples and command-line tools
// use.
//
// SELECTs execute through the streaming plan layer (internal/plan): the
// statement is lowered to an operator DAG and evaluated batch by batch.
type Executor struct {
	Cluster *cluster.Cluster
	Planner *Planner
	// Trace, when non-nil, records execution events of every join the
	// executor runs.
	Trace *trace.Recorder
	// Metrics, when non-nil, is threaded into every lowered plan so runs
	// accumulate per-operator totals into the live registry.
	Metrics *metrics.Registry
	// MemBudget, when positive, stamps every lowered plan with a memory
	// budget: blocking operators (sort, aggregation, join builds) spill
	// to compute-node scratch disks instead of exceeding their share.
	// Results are byte-identical to unbudgeted execution.
	MemBudget int64

	// mu guards views: concurrent Exec calls through the service layer
	// may interleave CREATE VIEW with SELECTs.
	mu    sync.RWMutex
	views map[string]*dds.JoinView
}

// NewExecutor returns an executor over the given cluster.
func NewExecutor(cl *cluster.Cluster) *Executor {
	return &Executor{Cluster: cl, Planner: New(), views: make(map[string]*dds.JoinView)}
}

// Output is the result of executing one statement.
type Output struct {
	// ViewCreated is set for CREATE VIEW statements.
	ViewCreated string
	// Rows holds the result rows for SELECT statements.
	Rows *tuple.SubTable
	// Result and Decision are set when a join executed.
	Result   *engine.Result
	Decision *Decision
	// Explain is the rendered plan tree for EXPLAIN statements.
	Explain string
}

// View returns a defined view by name.
func (ex *Executor) View(name string) (*dds.JoinView, bool) {
	ex.mu.RLock()
	defer ex.mu.RUnlock()
	v, ok := ex.views[name]
	return v, ok
}

// DefineView registers a view definition directly (bypassing SQL).
func (ex *Executor) DefineView(v *dds.JoinView) error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if _, ok := ex.views[v.Name]; ok {
		return fmt.Errorf("planner: view %q already exists", v.Name)
	}
	ex.views[v.Name] = v
	return nil
}

// Exec parses and executes one statement.
func (ex *Executor) Exec(sql string) (*Output, error) {
	return ex.ExecContext(context.Background(), sql)
}

// ExecContext is Exec observing ctx: a cancelled context aborts a
// streaming SELECT mid-join.
func (ex *Executor) ExecContext(ctx context.Context, sql string) (*Output, error) {
	st, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *query.CreateView:
		var v *dds.JoinView
		if s.Derived() {
			// A restriction view layered on an existing view: same join,
			// predicates conjoined — a DDS built on another DDS.
			base, ok := ex.View(s.Left)
			if !ok {
				return nil, fmt.Errorf("planner: view %q derives from unknown view %q", s.Name, s.Left)
			}
			merged, err := dds.MergePreds(base.Where, s.Where)
			if err != nil {
				return nil, err
			}
			v = &dds.JoinView{
				Name: s.Name, Left: base.Left, Right: base.Right,
				JoinAttrs: base.JoinAttrs, Where: merged,
			}
		} else {
			var err error
			v, err = dds.FromCreate(ex.Cluster.Catalog, s)
			if err != nil {
				return nil, err
			}
		}
		if err := ex.DefineView(v); err != nil {
			return nil, err
		}
		return &Output{ViewCreated: v.Name}, nil
	case *query.Select:
		l, err := ex.lowerSelect(s)
		if err != nil {
			return nil, err
		}
		return ex.ExecLowered(ctx, l)
	case *query.Explain:
		l, err := ex.lowerSelect(s.Select)
		if err != nil {
			return nil, err
		}
		return &Output{Explain: l.Plan.Explain(), Decision: l.Decision}, nil
	default:
		return nil, fmt.Errorf("planner: unsupported statement %T", st)
	}
}

// classifyItems splits the select list and validates SQL grouping rules.
func classifyItems(s *query.Select) (star bool, plain []string, aggs []query.SelectItem, err error) {
	inGroupBy := func(attr string) bool {
		for _, g := range s.GroupBy {
			if g == attr {
				return true
			}
		}
		return false
	}
	for _, it := range s.Items {
		switch {
		case it.Star:
			star = true
		case it.Agg != query.AggNone:
			aggs = append(aggs, it)
		default:
			plain = append(plain, it.Attr)
		}
	}
	if star && (len(plain) > 0 || len(aggs) > 0) {
		return false, nil, nil, fmt.Errorf("planner: * cannot be combined with other select items")
	}
	if len(aggs) > 0 {
		for _, a := range plain {
			if !inGroupBy(a) {
				return false, nil, nil, fmt.Errorf("planner: non-aggregated column %q must appear in GROUP BY", a)
			}
		}
		if star {
			return false, nil, nil, fmt.Errorf("planner: * cannot be aggregated; use COUNT(*)")
		}
	} else if len(s.GroupBy) > 0 {
		return false, nil, nil, fmt.Errorf("planner: GROUP BY requires aggregate select items")
	} else if s.Having != nil {
		return false, nil, nil, fmt.Errorf("planner: HAVING requires aggregation")
	}
	return star, plain, aggs, nil
}

// neededAttrs lists the attributes a query's outputs depend on, or nil for
// SELECT * (fetch everything). Range predicates are excluded: the BDS
// applies them before the projection.
func neededAttrs(star bool, plain []string, aggs []query.SelectItem, s *query.Select) []string {
	if star {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	add := func(name string) {
		if name == "" || name == "*" || seen[name] {
			return
		}
		seen[name] = true
		out = append(out, name)
	}
	for _, p := range plain {
		add(p)
	}
	for _, a := range aggs {
		add(a.Attr)
	}
	for _, g := range s.GroupBy {
		add(g)
	}
	if s.Having != nil {
		add(s.Having.Attr)
	}
	if len(aggs) == 0 {
		// Non-aggregate ORDER BY references output columns directly.
		for _, k := range s.OrderBy {
			add(k.Attr)
		}
	}
	return out
}

// pushdownFor decides whether a needed-attribute set can be pushed down to
// the view's base tables: every name must be a plain attribute of one of
// them (names such as the join result's "r_"-prefixed columns disable the
// pushdown — correctness first).
func (ex *Executor) pushdownFor(v *dds.JoinView, needed []string) []string {
	if needed == nil {
		return nil
	}
	leftDef, err := ex.Cluster.Catalog.Table(v.Left)
	if err != nil {
		return nil
	}
	rightDef, err := ex.Cluster.Catalog.Table(v.Right)
	if err != nil {
		return nil
	}
	for _, n := range needed {
		if leftDef.Schema.Index(n) < 0 && rightDef.Schema.Index(n) < 0 {
			return nil
		}
	}
	return needed
}
