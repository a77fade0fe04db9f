// Package plan is the streaming execution layer between the SQL planner
// and the join engines: a typed plan DAG (Scan, Filter, Project, Join,
// Aggregate, Sort, Limit) plus a batch-iterator Operator interface that
// evaluates it without materializing whole intermediate results.
//
// A plan is the recipe the planner lowers a SELECT into. Sources stream
// batches — a table scan fetches chunks through a bounded lookahead
// window, a join receives engine output per IJ edge or GH bucket pair
// through an order-restoring sink — and the operators above them consume
// batches incrementally. Blocking operators (Sort, Aggregate) absorb
// their input and emit once; Limit stops pulling when satisfied and its
// Close cancels the engine run mid-join, so a `SELECT ... LIMIT n`
// executes only the fraction of the edge/bucket schedule it needed.
//
// Join batches are released in slot/group order, so IJ results are
// byte-identical at any prefetch, parallelism, budget or fault schedule;
// aggregation is order-independent (exact sums, total-order MIN/MAX), so
// aggregate results are byte-identical under either engine; and Sort is
// stable on equal keys.
package plan

import (
	"fmt"
	"strings"

	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/costmodel"
	"sciview/internal/dds"
	"sciview/internal/engine"
	"sciview/internal/metadata"
	"sciview/internal/metrics"
	"sciview/internal/query"
	"sciview/internal/simio"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// Node is one vertex of the plan DAG. Nodes are typed data: they carry
// the logical description (for EXPLAIN) and the physical recipe (cluster,
// engine, request) their operator executes.
type Node interface {
	// Schema is the node's statically-known output schema.
	Schema() tuple.Schema
	// Children returns the input nodes (display order).
	Children() []Node
	describe() string
}

// Plan is a lowered statement ready to execute or explain.
type Plan struct {
	Root Node
	// OutID is the ID of the assembled result table ({-1,-1} for row
	// output, {-3,-1} for aggregates).
	OutID tuple.ID
	// Trace, when non-nil, receives one KindOperator span per operator.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives per-operator-kind rows/bytes/busy
	// totals after each run (accumulated once at completion, never on the
	// per-batch path).
	Metrics *metrics.Registry
	// Budget is the query's total spill budget in bytes, distributed over
	// the spill-capable operators by SetBudget. 0 means unbounded: every
	// operator runs fully in memory, exactly as before out-of-core
	// execution existed.
	Budget int64
}

// maxBufferedBatches bounds the reorder sink's per-part buffer: a join
// part that runs ahead of the part currently being drained blocks after
// this many undelivered batches, throttling producers instead of
// materializing the join.
const maxBufferedBatches = 8

// Join returns the plan's join node, or nil for join-free plans. Callers
// use it to adjust the engine request (shared mode, prefetch,
// parallelism) before running.
func (p *Plan) Join() *JoinNode {
	var find func(n Node) *JoinNode
	find = func(n Node) *JoinNode {
		if j, ok := n.(*JoinNode); ok {
			return j
		}
		for _, c := range n.Children() {
			if j := find(c); j != nil {
				return j
			}
		}
		return nil
	}
	return find(p.Root)
}

// ---------------------------------------------------------------------
// Scan

// ScanNode reads one base table: the selection/projection DDS over a BDS
// table, streamed chunk by chunk. As a child of a JoinNode it is
// descriptive only — it shows the per-side filter and the pushed-down
// projection the engine applies during its own fetches.
type ScanNode struct {
	Cluster *cluster.Cluster
	Table   string
	Preds   []query.Pred
	// Proj lists the output attributes in order; nil keeps the table
	// schema.
	Proj []string

	joinSide bool
	filter   metadata.Range
	schema   tuple.Schema
	descs    []tuple.ID
	estRows  int64
	// estDecBytes / estWireBytes are the decoded row-major size of the
	// resolved chunk set (after projection) and the size estimated to cross
	// the storage→compute NIC under the cluster's wire codec. Equal when the
	// wire is row-major; under colenc the rle chunks' on-disk size stands in
	// for their pass-through encoded size.
	estDecBytes  int64
	estWireBytes int64
}

// NewScan builds an executable table scan, validating the predicates and
// projection against the catalog and resolving the chunks in range. asOf
// pins resolution to a catalog version (0 = current): the chunk set is
// fixed at plan-build time, so appends committed after lowering never leak
// into the scan.
func NewScan(cl *cluster.Cluster, table string, preds []query.Pred, proj []string, asOf int64) (*ScanNode, error) {
	def, err := cl.Catalog.Table(table)
	if err != nil {
		return nil, err
	}
	var mine []query.Pred
	for _, p := range preds {
		if def.Schema.Index(p.Attr) < 0 {
			return nil, fmt.Errorf("plan: table %s has no attribute %q", table, p.Attr)
		}
		mine = append(mine, p)
	}
	schema := def.Schema
	if proj != nil {
		s, _, err := def.Schema.Project(proj)
		if err != nil {
			return nil, err
		}
		schema = s
	}
	filter := query.ToRange(mine)
	filter.Versions.Until = asOf
	descs, err := cl.Catalog.ChunksInRange(table, filter)
	if err != nil {
		return nil, err
	}
	n := &ScanNode{
		Cluster: cl, Table: table, Preds: mine, Proj: proj,
		filter: filter, schema: schema,
	}
	n.resolveEstimates(descs, len(def.Schema.Names()))
	return n, nil
}

// joinInputScan describes one side of a join for EXPLAIN: the engine does
// the actual fetching with this filter and projection pushed down. The
// chunk set is resolved best-effort so the scan can annotate its estimated
// fetch volume; a resolution failure leaves the estimates at zero without
// failing the plan (the engine re-resolves at run time anyway).
func joinInputScan(cl *cluster.Cluster, table string, schema tuple.Schema, filter metadata.Range, proj []string) *ScanNode {
	n := &ScanNode{
		Cluster: cl, Table: table, Proj: proj,
		joinSide: true, filter: filter, schema: schema,
	}
	if descs, err := cl.Catalog.ChunksInRange(table, filter); err == nil {
		fullAttrs := len(schema.Names())
		if def, err := cl.Catalog.Table(table); err == nil {
			fullAttrs = len(def.Schema.Names())
		}
		n.resolveEstimates(descs, fullAttrs)
	}
	return n
}

// resolveEstimates accumulates the resolved chunk IDs and the fetch-volume
// estimates for the scan. fullAttrs is the base table's attribute count,
// used to pro-rate on-disk rle sizes down to the projected columns.
func (n *ScanNode) resolveEstimates(descs []*chunk.Desc, fullAttrs int) {
	rec := int64(n.schema.RecordSize())
	attrs := int64(len(n.schema.Names()))
	encoded := n.Cluster.Config.WireEncoded()
	for _, d := range descs {
		n.descs = append(n.descs, d.ID())
		n.estRows += int64(d.Rows)
		dec := int64(d.Rows) * rec
		n.estDecBytes += dec
		wire := dec
		if encoded && d.Format == "rle" && fullAttrs > 0 {
			// Pass-through: the wire carries the chunk's on-disk runs,
			// narrowed to the projected columns. The codec never ships more
			// than raw, so the estimate is capped at the decoded size.
			if w := d.Size * attrs / int64(fullAttrs); w < dec {
				wire = w
			}
		}
		n.estWireBytes += wire
	}
}

func (n *ScanNode) Schema() tuple.Schema { return n.schema }
func (n *ScanNode) Children() []Node     { return nil }

func (n *ScanNode) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan(%s)", n.Table)
	if len(n.filter.Attrs) > 0 {
		b.WriteString(" filter[")
		for i, a := range n.filter.Attrs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s ∈ [%g, %g]", a, n.filter.Lo[i], n.filter.Hi[i])
		}
		b.WriteString("]")
	}
	if n.Proj != nil {
		fmt.Fprintf(&b, " project[%s]", strings.Join(n.Proj, ", "))
	}
	return b.String()
}

// annotations is the scan's extra EXPLAIN line: the wire codec the fetch
// path will use and the estimated bytes it moves storage→compute.
func (n *ScanNode) annotations() []string {
	if len(n.descs) == 0 {
		return nil
	}
	line := fmt.Sprintf("fetch: wire=%s est=%s", n.Cluster.Config.WireName(), fmtBytes(n.estWireBytes))
	if n.estWireBytes != n.estDecBytes {
		line += fmt.Sprintf(" (decoded %s)", fmtBytes(n.estDecBytes))
	}
	return []string{line}
}

// fmtBytes renders a byte count with a binary unit suffix for EXPLAIN.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// ---------------------------------------------------------------------
// Join

// JoinCost is the cost-model decision attached to a join node, rendered
// by EXPLAIN.
type JoinCost struct {
	Chosen    string
	Forced    bool
	Params    costmodel.Params
	PredictIJ costmodel.Breakdown
	PredictGH costmodel.Breakdown
	// Calibrated reports whether live-calibrated constants displaced the
	// configured ones in Params; Constants is the estimator snapshot the
	// decision consulted.
	Calibrated bool
	Constants  costmodel.Constants
}

// JoinNode runs the view's equi-join through the chosen engine, streaming
// output batches in deterministic slot/group order. The request carries
// the merged filter and the pushed-down projection; its children are the
// descriptive per-side scans.
type JoinNode struct {
	Eng     engine.Engine
	Cluster *cluster.Cluster
	// View is the queried view's name (display).
	View string
	Req  engine.Request
	// Cost is the planner's decision record (nil when unavailable).
	Cost *JoinCost
	// Parts is the number of emission parts (IJ slots / GH groups): one
	// per compute node.
	Parts int

	left, right *ScanNode
	schema      tuple.Schema
}

// NewJoin builds a join node from an engine request the planner has
// already chosen an engine for.
func NewJoin(eng engine.Engine, cl *cluster.Cluster, view string, req engine.Request, cost *JoinCost) (*JoinNode, error) {
	leftDef, err := cl.Catalog.Table(req.LeftTable)
	if err != nil {
		return nil, err
	}
	rightDef, err := cl.Catalog.Table(req.RightTable)
	if err != nil {
		return nil, err
	}
	project := req.EffectiveProject()
	ls := engine.ProjectedSchema(leftDef.Schema, project)
	rs := engine.ProjectedSchema(rightDef.Schema, project)
	return &JoinNode{
		Eng: eng, Cluster: cl, View: view, Req: req, Cost: cost,
		Parts:  len(cl.Compute),
		left:   joinInputScan(cl, req.LeftTable, ls, windowed(sideFilter(leftDef.Schema, req.Filter), req.LeftWindow()), project),
		right:  joinInputScan(cl, req.RightTable, rs, windowed(sideFilter(rightDef.Schema, req.Filter), req.RightWindow()), project),
		schema: ls.JoinResult(rs, req.JoinAttrs, "r_"),
	}, nil
}

// windowed attaches a version window to a per-side filter (the engines do
// the same from the request; here it keeps EXPLAIN's descriptive scans in
// sync with what the engine will actually resolve).
func windowed(f metadata.Range, w metadata.VersionWindow) metadata.Range {
	f.Versions = w
	return f
}

// sideFilter keeps the constraints naming attributes of one side's schema
// (mirrors the engines' per-side filter restriction).
func sideFilter(schema tuple.Schema, f metadata.Range) metadata.Range {
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

func (n *JoinNode) Schema() tuple.Schema { return n.schema }
func (n *JoinNode) Children() []Node     { return []Node{n.left, n.right} }

func (n *JoinNode) describe() string {
	name := "?"
	if n.Eng != nil {
		name = n.Eng.Name()
	}
	s := fmt.Sprintf("Join[%s](%s ⋈ %s ON %s)", name,
		n.Req.LeftTable, n.Req.RightTable, strings.Join(n.Req.JoinAttrs, ", "))
	if n.View != "" {
		s += " view=" + n.View
	}
	return s
}

// annotations are the extra EXPLAIN lines under the join: the cost-model
// decision with its constant provenance (calibrated vs static), both
// predicted breakdowns, the constants the prediction used once the
// calibration layer is live, and the spill line for budget-stamped
// plans.
func (n *JoinNode) annotations() []string {
	c := n.Cost
	if c == nil {
		if n.Req.MemoryBudget > 0 {
			return []string{spillLine(n.Req.MemoryBudget, residentBytes(n))}
		}
		return nil
	}
	calib := "static"
	if c.Calibrated {
		calib = "live"
	}
	decision := fmt.Sprintf("cost: ij=%v gh=%v chose=%s calib=%s",
		costmodel.Duration(c.PredictIJ.Total), costmodel.Duration(c.PredictGH.Total),
		c.Chosen, calib)
	if c.Forced {
		decision += " (forced)"
	}
	lines := []string{
		decision,
		fmt.Sprintf("ij: transfer %v build %v lookup %v",
			costmodel.Duration(c.PredictIJ.Transfer), costmodel.Duration(c.PredictIJ.Build),
			costmodel.Duration(c.PredictIJ.Lookup)),
		fmt.Sprintf("gh: transfer %v write %v read %v build %v lookup %v",
			costmodel.Duration(c.PredictGH.Transfer), costmodel.Duration(c.PredictGH.Write),
			costmodel.Duration(c.PredictGH.Read), costmodel.Duration(c.PredictGH.Build),
			costmodel.Duration(c.PredictGH.Lookup)),
	}
	if c.Calibrated {
		lines = append(lines, "constants: "+c.Constants.String())
	}
	if n.Req.MemoryBudget > 0 {
		lines = append(lines, spillLine(n.Req.MemoryBudget, residentBytes(n)))
	}
	return lines
}

// ---------------------------------------------------------------------
// Row operators

// FilterNode applies residual range predicates batch-by-batch — the ones
// that could not be pushed below a source.
type FilterNode struct {
	Child Node
	Preds []query.Pred
}

// NewFilter validates the predicates against the child's schema.
func NewFilter(child Node, preds []query.Pred) (*FilterNode, error) {
	for _, p := range preds {
		if child.Schema().Index(p.Attr) < 0 {
			return nil, fmt.Errorf("plan: filter references %q, not an output column of %v",
				p.Attr, child.Schema().Names())
		}
	}
	return &FilterNode{Child: child, Preds: preds}, nil
}

func (n *FilterNode) Schema() tuple.Schema { return n.Child.Schema() }
func (n *FilterNode) Children() []Node     { return []Node{n.Child} }

func (n *FilterNode) describe() string {
	var parts []string
	for _, p := range n.Preds {
		parts = append(parts, fmt.Sprintf("%s ∈ [%g, %g]", p.Attr, p.Lo, p.Hi))
	}
	return fmt.Sprintf("Filter(%s)", strings.Join(parts, ", "))
}

// ProjectNode narrows each batch to the named columns, in name order.
type ProjectNode struct {
	Child  Node
	Names  []string
	schema tuple.Schema
}

// NewProject validates the names against the child's schema.
func NewProject(child Node, names []string) (*ProjectNode, error) {
	s, _, err := child.Schema().Project(names)
	if err != nil {
		return nil, err
	}
	return &ProjectNode{Child: child, Names: names, schema: s}, nil
}

func (n *ProjectNode) Schema() tuple.Schema { return n.schema }
func (n *ProjectNode) Children() []Node     { return []Node{n.Child} }
func (n *ProjectNode) describe() string {
	return fmt.Sprintf("Project(%s)", strings.Join(n.Names, ", "))
}

// AggregateNode folds the child's batches into per-group aggregate state
// and emits the finalized groups as one batch.
type AggregateNode struct {
	Child   Node
	Items   []query.SelectItem
	GroupBy []string
	Having  *query.Having
	// SpillBudget/SpillDisk/SpillOwner/SpillTrace are stamped by
	// Plan.SetBudget: when the estimated group state exceeds the budget,
	// the operator partitions raw rows to the scratch disk and replays
	// them partition by partition (byte-identical to the in-memory fold).
	SpillBudget int64
	SpillDisk   *simio.Disk
	SpillOwner  string
	SpillTrace  *trace.Recorder
	schema      tuple.Schema
}

// NewAggregate validates the specification against the child schema.
func NewAggregate(child Node, items []query.SelectItem, groupBy []string, having *query.Having) (*AggregateNode, error) {
	schema, err := dds.AggSchema(child.Schema(), items, groupBy)
	if err != nil {
		return nil, err
	}
	if having != nil && having.Attr != "*" && child.Schema().Index(having.Attr) < 0 {
		return nil, fmt.Errorf("dds: HAVING references unknown attribute %q", having.Attr)
	}
	return &AggregateNode{
		Child: child, Items: items, GroupBy: groupBy, Having: having,
		schema: schema,
	}, nil
}

func (n *AggregateNode) Schema() tuple.Schema { return n.schema }
func (n *AggregateNode) Children() []Node     { return []Node{n.Child} }

func (n *AggregateNode) describe() string {
	var items []string
	for _, it := range n.Items {
		items = append(items, fmt.Sprintf("%s(%s)", it.Agg, it.Attr))
	}
	s := fmt.Sprintf("Aggregate(%s)", strings.Join(items, ", "))
	if len(n.GroupBy) > 0 {
		s += " group by " + strings.Join(n.GroupBy, ", ")
	}
	if n.Having != nil {
		s += fmt.Sprintf(" having %s(%s) %s %g", n.Having.Agg, n.Having.Attr, n.Having.Op, n.Having.Val)
	}
	return s
}

// annotations is the aggregate's EXPLAIN spill line (budget-stamped
// plans only).
func (n *AggregateNode) annotations() []string {
	if n.SpillBudget <= 0 {
		return nil
	}
	return []string{spillLine(n.SpillBudget, residentBytes(n))}
}

// spillLine renders the EXPLAIN spill annotation: the operator's budget
// share, its estimated working set, and the execution mode the estimate
// selects.
func spillLine(budget, est int64) string {
	mode := "in-mem"
	if est > budget {
		mode = "external"
	}
	return fmt.Sprintf("spill: budget=%s est=%s mode=%s", fmtBytes(budget), fmtBytes(est), mode)
}

// SortNode absorbs the child's batches and emits them fully ordered, as
// one batch, stable on equal keys.
type SortNode struct {
	Child Node
	Keys  []query.OrderKey
	// SpillBudget/SpillDisk/SpillOwner/SpillTrace are stamped by
	// Plan.SetBudget: when the accumulated input exceeds the budget, the
	// operator generates sorted runs on the scratch disk and merges them
	// with a loser tree (byte-identical to the in-memory stable sort).
	SpillBudget int64
	SpillDisk   *simio.Disk
	SpillOwner  string
	SpillTrace  *trace.Recorder
}

// NewSort validates the keys against the child's schema.
func NewSort(child Node, keys []query.OrderKey) (*SortNode, error) {
	for _, k := range keys {
		if child.Schema().Index(k.Attr) < 0 {
			return nil, fmt.Errorf("planner: ORDER BY references %q, not an output column of %v",
				k.Attr, child.Schema().Names())
		}
	}
	return &SortNode{Child: child, Keys: keys}, nil
}

func (n *SortNode) Schema() tuple.Schema { return n.Child.Schema() }
func (n *SortNode) Children() []Node     { return []Node{n.Child} }

func (n *SortNode) describe() string {
	var keys []string
	for _, k := range n.Keys {
		if k.Desc {
			keys = append(keys, k.Attr+" desc")
		} else {
			keys = append(keys, k.Attr)
		}
	}
	return fmt.Sprintf("Sort(%s)", strings.Join(keys, ", "))
}

// annotations is the sort's EXPLAIN spill line (budget-stamped plans
// only). Sort spills dynamically — the estimate decides the displayed
// mode, the actual accumulated bytes decide at run time.
func (n *SortNode) annotations() []string {
	if n.SpillBudget <= 0 {
		return nil
	}
	return []string{spillLine(n.SpillBudget, estRows(n.Child)*int64(n.Schema().RecordSize()))}
}

// LimitNode truncates the stream after N rows. Reaching the limit stops
// pulling from the child; the subsequent Close propagates cancellation
// into a running join, abandoning the un-joined remainder of the
// edge/bucket schedule.
type LimitNode struct {
	Child Node
	N     int
}

// NewLimit builds a limit node (n >= 0).
func NewLimit(child Node, n int) *LimitNode { return &LimitNode{Child: child, N: n} }

func (n *LimitNode) Schema() tuple.Schema { return n.Child.Schema() }
func (n *LimitNode) Children() []Node     { return []Node{n.Child} }
func (n *LimitNode) describe() string     { return fmt.Sprintf("Limit(%d)", n.N) }

// ---------------------------------------------------------------------
// Explain

// annotated is implemented by nodes with extra EXPLAIN detail lines.
type annotated interface{ annotations() []string }

// Explain renders the plan tree, one node per line, with pushed-down
// predicates/projections on the sources and the cost-model breakdown
// under the join.
func (p *Plan) Explain() string {
	var b strings.Builder
	var walk func(n Node, prefix string, childPrefix string)
	walk = func(n Node, prefix, childPrefix string) {
		b.WriteString(prefix)
		b.WriteString(n.describe())
		b.WriteByte('\n')
		kids := n.Children()
		if a, ok := n.(annotated); ok {
			barPrefix := childPrefix + "│    "
			if len(kids) == 0 {
				barPrefix = childPrefix + "     "
			}
			for _, line := range a.annotations() {
				b.WriteString(barPrefix)
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
		for i, k := range kids {
			if i == len(kids)-1 {
				walk(k, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				walk(k, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	walk(p.Root, "", "")
	return b.String()
}

// ---------------------------------------------------------------------
// Memory estimate

// MemoryEstimate bounds the resident bytes of a streaming execution of
// the plan: per-operator batch/window/build bounds instead of the
// whole-result sizes a materialized run would hold. Blocking operators
// (Sort, and the join's build side) contribute their full working set;
// streaming operators contribute bounded windows. Admission control uses
// this as the query's memory weight.
func (p *Plan) MemoryEstimate() int64 {
	var total int64
	var walk func(n Node)
	walk = func(n Node) {
		total += residentBytes(n)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p.Root)
	return total
}

// residentBytes estimates one node's peak resident footprint.
func residentBytes(n Node) int64 {
	rec := int64(n.Schema().RecordSize())
	switch t := n.(type) {
	case *ScanNode:
		if t.joinSide {
			// The engine's fetches are priced on the JoinNode.
			return 0
		}
		// Lookahead window: one in-flight chunk per compute node.
		if len(t.descs) == 0 {
			return 0
		}
		avg := t.estRows / int64(len(t.descs))
		return int64(len(t.Cluster.Compute)) * avg * rec
	case *JoinNode:
		if t.Cost == nil {
			return 0
		}
		pm := t.Cost.Params
		// Build side resident + one streamed right sub-table per joiner +
		// the reorder sink's bounded per-part buffers.
		build := pm.T * int64(pm.RSR)
		stream := int64(pm.Nj) * pm.CS * int64(pm.RSS)
		buffer := int64(t.Parts) * maxBufferedBatches * pm.CS * rec
		return build + stream + buffer
	case *SortNode:
		// Absorbs its whole input.
		return estRows(t.Child) * rec
	case *AggregateNode:
		// Per-group accumulators; bounded by the (deduplicated) group
		// count, estimated conservatively from the input. A global
		// aggregate holds exactly one group.
		if len(t.GroupBy) == 0 {
			return rec
		}
		rows := estRows(t.Child)
		if rows > 1<<16 {
			rows = 1 << 16
		}
		return rows * rec
	default:
		// Pass-through operators hold at most one batch.
		return maxBufferedBatches * 4096
	}
}

// ---------------------------------------------------------------------
// Spill budget

// degradedFloor is the minimum resident charge a spilling operator is
// billed in DegradedEstimate: even fully external execution keeps merge
// buffers and partition staging resident.
const degradedFloor = 64 << 10

// spillable reports whether a node's operator can run out-of-core. A
// global aggregate (no GROUP BY) holds a single accumulator row and
// never needs to spill.
func spillable(n Node) bool {
	switch t := n.(type) {
	case *SortNode, *JoinNode:
		return true
	case *AggregateNode:
		return len(t.GroupBy) > 0
	}
	return false
}

// SetBudget distributes a total spill budget (bytes) evenly over the
// plan's spill-capable operators: sorts and aggregates get a scratch
// disk assignment (round-robin over the compute nodes) and a budget
// share; the join's share rides on its engine request, where the engine
// divides it among its per-node QES instances. Budget <= 0 clears
// nothing and keeps the plan fully in-memory.
func (p *Plan) SetBudget(budget int64) {
	p.Budget = budget
	if budget <= 0 {
		return
	}
	var spills []Node
	var cl *cluster.Cluster
	var walk func(n Node)
	walk = func(n Node) {
		if spillable(n) {
			spills = append(spills, n)
		}
		switch t := n.(type) {
		case *JoinNode:
			if cl == nil {
				cl = t.Cluster
			}
		case *ScanNode:
			if cl == nil {
				cl = t.Cluster
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p.Root)
	if len(spills) == 0 {
		return
	}
	share := budget / int64(len(spills))
	if share < 1 {
		share = 1
	}
	for i, n := range spills {
		var disk *simio.Disk
		var owner string
		if cl != nil && len(cl.Compute) > 0 {
			j := i % len(cl.Compute)
			disk = cl.Compute[j].Scratch
			owner = fmt.Sprintf("compute-%d", j)
		}
		switch t := n.(type) {
		case *SortNode:
			t.SpillBudget, t.SpillDisk, t.SpillOwner, t.SpillTrace = share, disk, owner, p.Trace
		case *AggregateNode:
			t.SpillBudget, t.SpillDisk, t.SpillOwner, t.SpillTrace = share, disk, owner, p.Trace
		case *JoinNode:
			t.Req.MemoryBudget = share
		}
	}
}

// DegradedEstimate is MemoryEstimate under the stamped budget: each
// spill-capable operator's resident charge is capped at its budget
// share (plus the degraded floor for merge/staging buffers), because in
// degraded mode the overflow lives on the scratch disk rather than in
// memory. Admission control weighs degraded queries with this value.
func (p *Plan) DegradedEstimate() int64 {
	if p.Budget <= 0 {
		return p.MemoryEstimate()
	}
	var nSpill int64
	var count func(n Node)
	count = func(n Node) {
		if spillable(n) {
			nSpill++
		}
		for _, c := range n.Children() {
			count(c)
		}
	}
	count(p.Root)
	share := p.Budget
	if nSpill > 0 {
		share = p.Budget / nSpill
	}
	var total int64
	var walk func(n Node)
	walk = func(n Node) {
		r := residentBytes(n)
		if spillable(n) {
			if cap := share + degradedFloor; r > cap {
				r = cap
			}
		}
		total += r
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p.Root)
	return total
}

// estRows estimates a node's output cardinality.
func estRows(n Node) int64 {
	switch t := n.(type) {
	case *ScanNode:
		return t.estRows
	case *JoinNode:
		if t.Cost != nil {
			return t.Cost.Params.T
		}
		return 0
	case *LimitNode:
		rows := estRows(t.Child)
		if int64(t.N) < rows {
			return int64(t.N)
		}
		return rows
	case *AggregateNode:
		rows := estRows(t.Child)
		if rows > 1<<16 {
			return 1 << 16
		}
		return rows
	default:
		kids := n.Children()
		if len(kids) == 1 {
			return estRows(kids[0])
		}
		return 0
	}
}
