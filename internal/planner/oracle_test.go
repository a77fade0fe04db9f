package planner

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"
	"testing"

	"sciview/internal/chunk"
	"sciview/internal/oilres"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

// The naive oracle: a test-only reference evaluator the golden corpus and
// the differential harnesses check every execution leg against. It reads
// the base tables straight from a generated dataset's stores through the
// chunk extractors — no cluster, cache, wire codec, engine or plan code —
// and evaluates a SELECT by nested-loop join, filter, exact math/big
// aggregation, stable sort and LIMIT.

type oracleView struct {
	left, right string
	on          []string
	where       []query.Pred
}

type oracle struct {
	tables map[string]*oracleRel
	views  map[string]oracleView
	joins  map[string]*oracleRel // unfiltered view joins, by "left|right|on"
}

// oracleRel is a relation: column names and row-major values.
type oracleRel struct {
	cols []string
	rows [][]float32
}

func (r *oracleRel) index(name string) int {
	for i, c := range r.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// newOracle loads every table of ds and defines the given views (CREATE
// VIEW statements, possibly layered on one another).
func newOracle(t *testing.T, ds *oilres.Dataset, ddl ...string) *oracle {
	t.Helper()
	o := &oracle{tables: map[string]*oracleRel{}, views: map[string]oracleView{}, joins: map[string]*oracleRel{}}
	for _, def := range ds.Catalog.Tables() {
		rel := &oracleRel{cols: def.Schema.Names()}
		for _, d := range ds.Catalog.Chunks(def.ID) {
			data, err := ds.Stores[d.Node].ReadRange(d.Object, d.Offset, d.Size)
			if err != nil {
				t.Fatal(err)
			}
			st, err := chunk.Extract(d, data)
			if err != nil {
				t.Fatal(err)
			}
			idx := make([]int, len(rel.cols))
			for i, c := range rel.cols {
				if idx[i] = st.Schema.Index(c); idx[i] < 0 {
					t.Fatalf("oracle: chunk %v lacks column %q", d.ID(), c)
				}
			}
			for r := 0; r < st.NumRows(); r++ {
				row := make([]float32, len(idx))
				for i, c := range idx {
					row[i] = st.Value(r, c)
				}
				rel.rows = append(rel.rows, row)
			}
		}
		o.tables[def.Name] = rel
	}
	for _, sql := range ddl {
		st, err := query.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		cv := st.(*query.CreateView)
		v := oracleView{left: cv.Left, right: cv.Right, on: cv.JoinAttrs, where: cv.Where}
		if base, ok := o.views[cv.Left]; ok && cv.Derived() {
			v = base
			v.where = append(append([]query.Pred(nil), base.where...), cv.Where...)
		}
		o.views[cv.Name] = v
	}
	return o
}

// join is the nested-loop equi-join of a view's base tables. Output
// columns are the left table's, then the right table's non-join columns
// ("r_"-prefixed on a name clash).
func (o *oracle) join(v oracleView) (*oracleRel, error) {
	key := v.left + "|" + v.right + "|" + strings.Join(v.on, ",")
	if rel, ok := o.joins[key]; ok {
		return rel, nil
	}
	l, r := o.tables[v.left], o.tables[v.right]
	if l == nil || r == nil {
		return nil, fmt.Errorf("oracle: unknown table in view")
	}
	li, ri := make([]int, len(v.on)), make([]int, len(v.on))
	for k, a := range v.on {
		li[k], ri[k] = l.index(a), r.index(a)
	}
	out := &oracleRel{cols: append([]string(nil), l.cols...)}
	var keep []int
	for c, name := range r.cols {
		isKey := false
		for _, a := range v.on {
			isKey = isKey || a == name
		}
		if isKey {
			continue
		}
		if out.index(name) >= 0 {
			name = "r_" + name
		}
		out.cols = append(out.cols, name)
		keep = append(keep, c)
	}
	for _, lr := range l.rows {
		for _, rr := range r.rows {
			match := true
			for k := range li {
				match = match && lr[li[k]] == rr[ri[k]]
			}
			if !match {
				continue
			}
			row := append([]float32(nil), lr...)
			for _, c := range keep {
				row = append(row, rr[c])
			}
			out.rows = append(out.rows, row)
		}
	}
	o.joins[key] = out
	return out, nil
}

// source returns the FROM relation after the WHERE predicates. A
// predicate applies to every base column it names: both sides' copies of
// a join attribute, and a measure wherever it occurs.
func (o *oracle) source(from string, where []query.Pred) (*oracleRel, error) {
	var rel *oracleRel
	var cols func(attr string) []int
	if v, ok := o.views[from]; ok {
		j, err := o.join(v)
		if err != nil {
			return nil, err
		}
		rel, where = j, append(append([]query.Pred(nil), v.where...), where...)
		l, r := o.tables[v.left], o.tables[v.right]
		cols = func(attr string) []int {
			var out []int
			if i := l.index(attr); i >= 0 {
				out = append(out, i) // the left columns lead the join row
			}
			isKey := false
			for _, a := range v.on {
				isKey = isKey || a == attr
			}
			if r.index(attr) >= 0 && !isKey {
				name := attr
				if l.index(attr) >= 0 {
					name = "r_" + attr
				}
				out = append(out, j.index(name))
			}
			return out
		}
	} else if tb, ok := o.tables[from]; ok {
		rel = tb
		cols = func(attr string) []int {
			if i := tb.index(attr); i >= 0 {
				return []int{i}
			}
			return nil
		}
	} else {
		return nil, fmt.Errorf("oracle: unknown relation %q", from)
	}
	filtered := &oracleRel{cols: rel.cols}
	for _, p := range where {
		if len(cols(p.Attr)) == 0 {
			return nil, fmt.Errorf("oracle: unknown WHERE attribute %q", p.Attr)
		}
	}
rows:
	for _, row := range rel.rows {
		for _, p := range where {
			for _, c := range cols(p.Attr) {
				if v := float64(row[c]); v < p.Lo || v > p.Hi {
					continue rows
				}
			}
		}
		filtered.rows = append(filtered.rows, row)
	}
	return filtered, nil
}

// oracleResult is the oracle's answer to one SELECT.
type oracleResult struct {
	cols []string
	rows [][]float32 // after LIMIT
	all  [][]float32 // before LIMIT
	// exact: the row sequence is fully determined by the query (a total
	// ORDER BY, at most one row, or an aggregate, whose groups come out
	// in key order and sort stably), so any correct execution returns
	// exactly these rows in this order.
	exact bool
	limit int
}

// orderKey is IEEE 754 totalOrder on float32 bit patterns.
func orderKey(v float32) uint32 {
	b := math.Float32bits(v)
	if b>>31 != 0 {
		return ^b
	}
	return b | 1<<31
}

type oracleGroup struct {
	key  []float32
	rows [][]float32
}

// aggValue evaluates one aggregate over a group's rows, in float64.
func aggValue(agg query.Agg, col int, rows [][]float32) float64 {
	switch agg {
	case query.AggCount:
		return float64(len(rows))
	case query.AggMin, query.AggMax:
		best := rows[0][col]
		for _, r := range rows[1:] {
			if k := orderKey(r[col]); agg == query.AggMin && k < orderKey(best) || agg == query.AggMax && k > orderKey(best) {
				best = r[col]
			}
		}
		return float64(best)
	}
	sum := new(big.Float).SetPrec(2048)
	for _, r := range rows {
		sum.Add(sum, new(big.Float).SetPrec(2048).SetFloat64(float64(r[col])))
	}
	f, _ := sum.Float64()
	if agg == query.AggAvg {
		return f / float64(len(rows))
	}
	return f
}

// exec evaluates one SELECT.
func (o *oracle) exec(sql string) (*oracleResult, error) {
	st, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	s, ok := st.(*query.Select)
	if !ok {
		return nil, fmt.Errorf("oracle: not a SELECT")
	}
	in, err := o.source(s.From, s.Where)
	if err != nil {
		return nil, err
	}
	col := func(name string) (int, error) {
		if i := in.index(name); i >= 0 {
			return i, nil
		}
		return 0, fmt.Errorf("oracle: unknown column %q", name)
	}
	var star bool
	var plain []string
	var aggs []query.SelectItem
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
	inGroupBy := func(a string) bool {
		for _, g := range s.GroupBy {
			if g == a {
				return true
			}
		}
		return false
	}
	switch {
	case star && (len(plain) > 0 || len(aggs) > 0):
		return nil, fmt.Errorf("oracle: * mixed with other items")
	case len(aggs) == 0 && (len(s.GroupBy) > 0 || s.Having != nil):
		return nil, fmt.Errorf("oracle: GROUP BY/HAVING without aggregates")
	}
	for _, a := range plain {
		if len(aggs) > 0 && !inGroupBy(a) {
			return nil, fmt.Errorf("oracle: %q not in GROUP BY", a)
		}
	}

	res := &oracleResult{limit: s.Limit}
	if len(aggs) > 0 {
		gidx := make([]int, len(s.GroupBy))
		for i, g := range s.GroupBy {
			if gidx[i], err = col(g); err != nil {
				return nil, err
			}
			res.cols = append(res.cols, g)
		}
		aidx := make([]int, len(aggs))
		for i, it := range aggs {
			name := strings.ToLower(string(it.Agg))
			if it.Attr != "*" {
				if aidx[i], err = col(it.Attr); err != nil {
					return nil, err
				}
				name += "_" + it.Attr
			}
			res.cols = append(res.cols, name)
		}
		hidx := 0
		if s.Having != nil && s.Having.Attr != "*" {
			if hidx, err = col(s.Having.Attr); err != nil {
				return nil, err
			}
		}
		groups := map[string]*oracleGroup{}
		var order []*oracleGroup
		for _, row := range in.rows {
			key := make([]float32, len(gidx))
			var kb strings.Builder
			for i, c := range gidx {
				key[i] = row[c]
				fmt.Fprintf(&kb, "%08x", math.Float32bits(row[c]))
			}
			g, ok := groups[kb.String()]
			if !ok {
				g = &oracleGroup{key: key}
				groups[kb.String()] = g
				order = append(order, g)
			}
			g.rows = append(g.rows, row)
		}
		sort.Slice(order, func(i, j int) bool {
			for k := range order[i].key {
				if a, b := orderKey(order[i].key[k]), orderKey(order[j].key[k]); a != b {
					return a < b
				}
			}
			return false
		})
		for _, g := range order {
			if h := s.Having; h != nil {
				v := aggValue(h.Agg, hidx, g.rows)
				pass := map[string]bool{"=": v == h.Val, "<": v < h.Val, "<=": v <= h.Val, ">": v > h.Val, ">=": v >= h.Val}[h.Op]
				if !pass {
					continue
				}
			}
			row := append([]float32(nil), g.key...)
			for i, it := range aggs {
				row = append(row, float32(aggValue(it.Agg, aidx[i], g.rows)))
			}
			res.all = append(res.all, row)
		}
		res.exact = true
	} else {
		names := in.cols
		if !star {
			names = plain
		}
		idx := make([]int, len(names))
		for i, n := range names {
			if idx[i], err = col(n); err != nil {
				return nil, err
			}
		}
		res.cols = append([]string(nil), names...)
		for _, row := range in.rows {
			out := make([]float32, len(idx))
			for i, c := range idx {
				out[i] = row[c]
			}
			res.all = append(res.all, out)
		}
	}

	keys := make([]int, len(s.OrderBy))
	for i, k := range s.OrderBy {
		keys[i] = -1
		for c, n := range res.cols {
			if n == k.Attr {
				keys[i] = c
			}
		}
		if keys[i] < 0 {
			return nil, fmt.Errorf("oracle: ORDER BY %q is not an output column", k.Attr)
		}
	}
	cmp := func(a, b []float32) int {
		for i, k := range s.OrderBy {
			va, vb := a[keys[i]], b[keys[i]]
			switch {
			case va == vb:
				continue
			case (va < vb) != k.Desc:
				return -1
			default:
				return 1
			}
		}
		return 0
	}
	if len(keys) > 0 {
		sort.SliceStable(res.all, func(i, j int) bool { return cmp(res.all[i], res.all[j]) < 0 })
	}
	if !res.exact {
		res.exact = len(res.all) <= 1
		if len(keys) > 0 {
			res.exact = true
			for i := 1; i < len(res.all); i++ {
				if cmp(res.all[i-1], res.all[i]) == 0 {
					res.exact = false
					break
				}
			}
		}
	}
	res.rows = res.all
	if s.Limit >= 0 && s.Limit < len(res.all) {
		res.rows = res.all[:s.Limit]
	}
	return res, nil
}

// rowKey renders a row by bit pattern, so -0/+0 and NaN payloads count.
func rowKey(row []float32) string {
	var b strings.Builder
	for i, v := range row {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%08x", math.Float32bits(v))
	}
	return b.String()
}

func tableRows(st *tuple.SubTable) [][]float32 {
	rows := make([][]float32, st.NumRows())
	for r := range rows {
		rows[r] = st.Row(r, nil)
	}
	return rows
}

// checkOracle asserts an execution's output agrees with the oracle:
// byte-exact when the oracle's order is determined, as a multiset
// otherwise, and — for a LIMIT without a determined order — the exact
// row count and a sub-multiset of the unlimited result.
func checkOracle(t *testing.T, label string, want *oracleResult, got *Output) {
	t.Helper()
	if gn := got.Rows.Schema.Names(); fmt.Sprint(gn) != fmt.Sprint(want.cols) {
		t.Fatalf("%s: schema %v, oracle %v", label, gn, want.cols)
	}
	rows := tableRows(got.Rows)
	if len(rows) != len(want.rows) {
		t.Fatalf("%s: %d rows, oracle %d", label, len(rows), len(want.rows))
	}
	if want.exact {
		for i := range rows {
			if rowKey(rows[i]) != rowKey(want.rows[i]) {
				t.Fatalf("%s: row %d = %v, oracle %v", label, i, rows[i], want.rows[i])
			}
		}
		return
	}
	pool := want.rows
	if want.limit >= 0 {
		pool = want.all
	}
	avail := map[string]int{}
	for _, r := range pool {
		avail[rowKey(r)]++
	}
	for i, r := range rows {
		k := rowKey(r)
		if avail[k] == 0 {
			t.Fatalf("%s: row %d = %v not in the oracle's result", label, i, r)
		}
		avail[k]--
	}
}

// runOracle executes sql on ex and checks it against the oracle; an
// error on either side must be matched by the other. It returns the
// output (nil on an expected error).
func runOracle(t *testing.T, o *oracle, ex *Executor, sql, label string) *Output {
	t.Helper()
	got, err := ex.Exec(sql)
	return checkOracleSQL(t, o, sql, label, got, err)
}

// checkOracleSQL checks one execution's output (or error) of sql
// against the oracle.
func checkOracleSQL(t *testing.T, o *oracle, sql, label string, got *Output, gotErr error) *Output {
	t.Helper()
	want, wantErr := o.exec(sql)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s [%s]: err = %v, oracle err = %v", sql, label, gotErr, wantErr)
	}
	if wantErr != nil {
		return nil
	}
	checkOracle(t, sql+" ["+label+"]", want, got)
	return got
}

// sameOutput asserts two executions returned byte-identical rows in the
// same order (IJ row order is deterministic across every knob and leg).
func sameOutput(t *testing.T, label string, a, b *Output) {
	t.Helper()
	an, bn := a.Rows.Schema.Names(), b.Rows.Schema.Names()
	if fmt.Sprint(an) != fmt.Sprint(bn) {
		t.Fatalf("%s: schema %v vs %v", label, an, bn)
	}
	if a.Rows.ID != b.Rows.ID {
		t.Fatalf("%s: result ID %v vs %v", label, a.Rows.ID, b.Rows.ID)
	}
	ar, br := tableRows(a.Rows), tableRows(b.Rows)
	if len(ar) != len(br) {
		t.Fatalf("%s: %d rows vs %d", label, len(ar), len(br))
	}
	for i := range ar {
		if rowKey(ar[i]) != rowKey(br[i]) {
			t.Fatalf("%s: row %d = %v vs %v", label, i, ar[i], br[i])
		}
	}
}

// TestOracleSelfCheck pins the oracle's own semantics on hand-checkable
// queries over the golden dataset.
func TestOracleSelfCheck(t *testing.T) {
	o := newOracle(t, goldenDataset(t), goldenViews...)
	for _, tc := range []struct {
		sql   string
		rows  int
		exact bool
	}{
		{"SELECT * FROM V1", 8 * 8 * 4, false},
		{"SELECT * FROM V1 ORDER BY x, y, z", 8 * 8 * 4, true},
		{"SELECT * FROM V2", 5 * 8 * 4, false},
		{"SELECT COUNT(*) FROM V1 WHERE y < 2", 1, true},
		{"SELECT x, COUNT(*) FROM T1 GROUP BY x HAVING COUNT(*) >= 16 ORDER BY x", 8, true},
		{"SELECT * FROM V1 LIMIT 3", 3, false},
	} {
		res, err := o.exec(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if len(res.rows) != tc.rows || res.exact != tc.exact {
			t.Errorf("%s: %d rows exact=%v, want %d exact=%v", tc.sql, len(res.rows), res.exact, tc.rows, tc.exact)
		}
	}
	res, err := o.exec("SELECT COUNT(*) FROM V1 WHERE y < 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.rows[0][0] != 8*2*4 {
		t.Errorf("COUNT(*) WHERE y < 2 = %v, want 64", res.rows[0][0])
	}
	for _, bad := range []string{
		"SELECT nosuch FROM V1", "SELECT * FROM V1 ORDER BY nosuch",
		"SELECT wp FROM V1 ORDER BY x", "SELECT wp FROM V1 GROUP BY wp",
	} {
		if _, err := o.exec(bad); err == nil {
			t.Errorf("%s: oracle accepted", bad)
		}
	}
}
