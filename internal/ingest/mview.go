package ingest

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/dds"
	"sciview/internal/metadata"
	"sciview/internal/metrics"
	"sciview/internal/plan"
	"sciview/internal/planner"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

// ViewConfig assembles a MaterializedView.
type ViewConfig struct {
	Cluster *cluster.Cluster
	Planner *planner.Planner
	// View is the equi-join view to materialize.
	View *dds.JoinView
	// Watcher, when set, registers the view's filter region so commits
	// that intersect it mark the view stale (and commits that don't,
	// don't).
	Watcher *Watcher
	// Metrics, when set, registers sciview_ingest_refreshes_total with a
	// mode label ("delta" or "full").
	Metrics *metrics.Registry
}

// MaterializedView holds a join view's full result, canonically ordered,
// together with the catalog version it reflects. Refresh folds committed
// append batches in incrementally with the delta-join identity
//
//	ΔV = ΔL ⋈ R_old  ∪  L_old ⋈ ΔR  ∪  ΔL ⋈ ΔR
//
// where each term runs through the ordinary streaming plan operators with
// per-side catalog-version windows — the same code path queries use, just
// restricted to the right slices of the version history. The maintained
// result is byte-identical to recomputing the view from scratch at the
// same version (RefreshFull), which the differential tests assert.
//
// Rows are kept in canonical order (lexicographic over all columns):
// engine arrival order depends on scheduling and is not stable across
// maintenance strategies, so the canonical sort is what makes
// "byte-identical" well-defined.
type MaterializedView struct {
	cfg ViewConfig

	mu      sync.Mutex
	rows    *tuple.SubTable
	version int64
	stale   bool
	handle  int

	refreshDelta *metrics.Counter
	refreshFull  *metrics.Counter
}

// NewMaterializedView builds the view's initial materialization at the
// catalog's current version.
func NewMaterializedView(cfg ViewConfig) (*MaterializedView, error) {
	if cfg.Cluster == nil || cfg.Planner == nil || cfg.View == nil {
		return nil, fmt.Errorf("ingest: view config needs Cluster, Planner and View")
	}
	m := &MaterializedView{cfg: cfg, handle: -1}
	reg := cfg.Metrics
	m.refreshDelta = reg.Counter("sciview_ingest_refreshes_total", "Materialized view refreshes by mode.", "mode", "delta")
	m.refreshFull = reg.Counter("sciview_ingest_refreshes_total", "Materialized view refreshes by mode.", "mode", "full")
	if _, err := m.RefreshFull(); err != nil {
		return nil, err
	}
	if cfg.Watcher != nil {
		filter := query.ToRange(cfg.View.Where)
		regions := make(map[string]bbox.Box, 2)
		for _, table := range []string{cfg.View.Left, cfg.View.Right} {
			def, err := cfg.Cluster.Catalog.Table(table)
			if err != nil {
				return nil, err
			}
			regions[table] = RegionFor(def.Schema, filter)
		}
		m.handle = cfg.Watcher.Register(&Dependent{
			Name:    "mview:" + cfg.View.Name,
			Regions: regions,
			Notify:  func(int64, []*chunk.Desc) { m.markStale() },
		})
	}
	return m, nil
}

// Close unregisters the view from its watcher.
func (m *MaterializedView) Close() {
	if m.cfg.Watcher != nil && m.handle >= 0 {
		m.cfg.Watcher.Unregister(m.handle)
		m.handle = -1
	}
}

// Rows returns the materialized result (canonical order) and the version
// it reflects. The sub-table is shared — callers must not modify it.
func (m *MaterializedView) Rows() (*tuple.SubTable, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rows, m.version
}

// Stale reports whether a commit intersecting the view landed after its
// last refresh.
func (m *MaterializedView) Stale() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stale
}

// Refresh brings the view to the catalog's current version by delta-join
// maintenance and returns that version. A view already at the current
// version returns immediately.
func (m *MaterializedView) Refresh() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	target := m.cfg.Cluster.Catalog.Version()
	if target == m.version {
		return target, nil
	}
	old := m.version
	// The three delta terms. Windows are half-open (Since, Until]: the
	// "old" side is everything visible at the last refresh, the "new" side
	// exactly the versions committed since.
	terms := []struct {
		lw, rw metadata.VersionWindow
	}{
		{metadata.VersionWindow{Until: old}, metadata.VersionWindow{Since: old, Until: target}},                // L_old ⋈ ΔR
		{metadata.VersionWindow{Since: old, Until: target}, metadata.VersionWindow{Until: old}},                // ΔL ⋈ R_old
		{metadata.VersionWindow{Since: old, Until: target}, metadata.VersionWindow{Since: old, Until: target}}, // ΔL ⋈ ΔR
	}
	merged := m.rows
	for _, t := range terms {
		delta, err := m.joinTerm(t.lw, t.rw, target)
		if err != nil {
			return 0, err
		}
		if delta == nil || delta.NumRows() == 0 {
			continue
		}
		if merged == m.rows {
			// First contributing term: copy-on-write so concurrent readers
			// of the old Rows() are never mutated under.
			merged = tuple.NewSubTable(m.rows.ID, m.rows.Schema, m.rows.NumRows()+delta.NumRows())
			if err := merged.AppendAll(m.rows); err != nil {
				return 0, err
			}
		}
		if err := merged.AppendAll(delta); err != nil {
			return 0, err
		}
	}
	if merged != m.rows {
		m.rows = Canonicalize(merged)
	}
	m.version = target
	m.stale = false
	m.refreshDelta.Inc()
	return target, nil
}

// RefreshFull recomputes the view from scratch at the catalog's current
// version — the oracle the delta path is checked against, and the fallback
// for non-equi-join maintenance.
func (m *MaterializedView) RefreshFull() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	target := m.cfg.Cluster.Catalog.Version()
	rows, err := m.joinTerm(metadata.VersionWindow{}, metadata.VersionWindow{}, target)
	if err != nil {
		return 0, err
	}
	if rows == nil {
		return 0, fmt.Errorf("ingest: view %s selects no chunks", m.cfg.View.Name)
	}
	m.rows = Canonicalize(rows)
	m.version = target
	m.stale = false
	m.refreshFull.Inc()
	return target, nil
}

// joinTerm runs one delta term through the streaming plan layer: the
// view's join with per-side version windows, pinned at target. Returns nil
// (no rows) when either side's window selects no chunks — the join of
// anything with an empty chunk set is empty, and the planner treats an
// empty side as an error.
func (m *MaterializedView) joinTerm(lw, rw metadata.VersionWindow, target int64) (*tuple.SubTable, error) {
	v := m.cfg.View
	req, err := v.Request(nil)
	if err != nil {
		return nil, err
	}
	req.AsOf = target
	req.LeftVersions = lw
	req.RightVersions = rw
	req.Shared = true // never reset the cluster under concurrent queries

	// Prune through the equi-join: every tuple a delta term emits agrees
	// with some delta-side tuple on the join attributes, so both sides can
	// be restricted to the delta chunks' bounding region. For time-step
	// appends this collapses the old side of ΔL⋈R_old / L_old⋈ΔR to the
	// few chunks overlapping the new slab — usually none.
	for _, side := range []struct {
		table string
		w     metadata.VersionWindow
	}{
		{req.LeftTable, req.LeftWindow()},
		{req.RightTable, req.RightWindow()},
	} {
		if side.w.Since == 0 {
			continue
		}
		r, ok, err := m.deltaJoinBounds(side.table, side.w)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		req.Filter = intersectRanges(req.Filter, r)
	}

	nl, err := m.sideChunks(req.LeftTable, req.Filter, req.LeftWindow())
	if err != nil {
		return nil, err
	}
	nr, err := m.sideChunks(req.RightTable, req.Filter, req.RightWindow())
	if err != nil {
		return nil, err
	}
	if nl == 0 || nr == 0 {
		return nil, nil
	}

	eng, dec, err := m.cfg.Planner.Choose(m.cfg.Cluster, req)
	if err != nil {
		return nil, err
	}
	jn, err := plan.NewJoin(eng, m.cfg.Cluster, v.Name, req, &plan.JoinCost{
		Chosen: dec.Chosen, Forced: dec.Forced, Params: dec.Params,
		PredictIJ: dec.PredictIJ, PredictGH: dec.PredictGH,
		Calibrated: dec.Calibrated, Constants: dec.Constants,
	})
	if err != nil {
		return nil, err
	}
	p := &plan.Plan{Root: jn, OutID: tuple.ID{Table: -1, Chunk: -1}}
	rows, _, err := plan.Run(context.Background(), p)
	return rows, err
}

// deltaJoinBounds returns the union of the bounding intervals, projected
// onto the view's join attributes, of the chunks a delta version window
// selects from table. ok is false when the window selects no chunks, in
// which case the whole term is empty.
func (m *MaterializedView) deltaJoinBounds(table string, w metadata.VersionWindow) (metadata.Range, bool, error) {
	descs, err := m.cfg.Cluster.Catalog.ChunksInRange(table, metadata.Range{Versions: w})
	if err != nil || len(descs) == 0 {
		return metadata.Range{}, false, err
	}
	var r metadata.Range
	for _, a := range m.cfg.View.JoinAttrs {
		lo, hi := 0.0, 0.0
		seen := false
		for _, d := range descs {
			for i, at := range d.Attrs {
				if at.Name != a || i >= d.Bounds.Dims() {
					continue
				}
				if !seen || d.Bounds.Lo[i] < lo {
					lo = d.Bounds.Lo[i]
				}
				if !seen || d.Bounds.Hi[i] > hi {
					hi = d.Bounds.Hi[i]
				}
				seen = true
			}
		}
		if seen {
			r.Attrs = append(r.Attrs, a)
			r.Lo = append(r.Lo, lo)
			r.Hi = append(r.Hi, hi)
		}
	}
	return r, true, nil
}

// intersectRanges conjoins two range filters, intersecting intervals on
// shared attributes.
func intersectRanges(a, b metadata.Range) metadata.Range {
	out := metadata.Range{
		Attrs:    append([]string(nil), a.Attrs...),
		Lo:       append([]float64(nil), a.Lo...),
		Hi:       append([]float64(nil), a.Hi...),
		Versions: a.Versions,
	}
	for j, attr := range b.Attrs {
		found := false
		for i, have := range out.Attrs {
			if have != attr {
				continue
			}
			if b.Lo[j] > out.Lo[i] {
				out.Lo[i] = b.Lo[j]
			}
			if b.Hi[j] < out.Hi[i] {
				out.Hi[i] = b.Hi[j]
			}
			found = true
			break
		}
		if !found {
			out.Attrs = append(out.Attrs, attr)
			out.Lo = append(out.Lo, b.Lo[j])
			out.Hi = append(out.Hi, b.Hi[j])
		}
	}
	return out
}

// sideChunks counts the chunks one side resolves to under a filter and
// version window.
func (m *MaterializedView) sideChunks(table string, filter metadata.Range, w metadata.VersionWindow) (int, error) {
	def, err := m.cfg.Cluster.Catalog.Table(table)
	if err != nil {
		return 0, err
	}
	var r metadata.Range
	for i, a := range filter.Attrs {
		if def.Schema.Index(a) < 0 {
			continue
		}
		r.Attrs = append(r.Attrs, a)
		r.Lo = append(r.Lo, filter.Lo[i])
		r.Hi = append(r.Hi, filter.Hi[i])
	}
	r.Versions = w
	descs, err := m.cfg.Cluster.Catalog.ChunksInRange(table, r)
	if err != nil {
		return 0, err
	}
	return len(descs), nil
}

// markStale is the watcher callback target.
func (m *MaterializedView) markStale() {
	m.mu.Lock()
	m.stale = true
	m.mu.Unlock()
}

// Canonicalize returns the rows of st in canonical order: lexicographic
// over all columns, left to right. Equal rows are interchangeable, so any
// two sub-tables holding the same multiset of rows canonicalize to
// byte-identical encodings — the well-definedness behind "delta
// maintenance is byte-identical to recompute".
func Canonicalize(st *tuple.SubTable) *tuple.SubTable {
	n := st.NumRows()
	cols := st.Schema.NumAttrs()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		for c := 0; c < cols; c++ {
			av, bv := st.Value(a, c), st.Value(b, c)
			if av != bv {
				return av < bv
			}
		}
		return false
	})
	out := tuple.NewSubTable(st.ID, st.Schema, n)
	row := make([]float32, cols)
	for _, r := range idx {
		out.AppendRow(st.Row(r, row)...)
	}
	return out
}
