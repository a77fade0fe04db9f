package dds

import (
	"fmt"
	"math"
	"sort"

	"sciview/internal/query"
	"sciview/internal/tuple"
)

// Aggregation DDS: the paper's stated future-work extension ("we plan to
// investigate other aspects of view creation, including aggregation
// operations"), layered over the join DDS or a table scan. Rows fold into
// a Partial (per-group count/sum/min/max state); partials over disjoint
// row sets merge, and the merged state is finalized into the output
// table. Every accumulator is order-independent — COUNT is an integer,
// SUM/AVG an exact sum, MIN/MAX a total order — so Merge is associative
// and commutative and the result depends only on the multiset of input
// rows, never on how they were partitioned, scheduled or spilled.

// Partial is per-group aggregation state for a fixed (items, groupBy)
// specification over one input partition.
type Partial struct {
	schema   tuple.Schema
	items    []query.SelectItem
	groupBy  []string
	groups   map[string]*pgroup
	havingOn bool
	hAttr    string
	hSum     bool
}

type pgroup struct {
	key  []float32
	accs []accumulator
	hav  accumulator
}

// NewPartial prepares empty state. having may be nil; when present its
// accumulator is folded alongside (the HAVING aggregate may differ from
// every select item).
func NewPartial(schema tuple.Schema, items []query.SelectItem, groupBy []string, having *query.Having) (*Partial, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("dds: no aggregation items")
	}
	if _, err := AggSchema(schema, items, groupBy); err != nil {
		return nil, err
	}
	p := &Partial{
		schema:  schema,
		items:   items,
		groupBy: groupBy,
		groups:  make(map[string]*pgroup),
	}
	if having != nil {
		if having.Attr != "*" && schema.Index(having.Attr) < 0 {
			return nil, fmt.Errorf("dds: HAVING references unknown attribute %q", having.Attr)
		}
		p.havingOn = true
		p.hAttr = having.Attr
		p.hSum = summed(having.Agg)
	}
	return p, nil
}

// Groups returns the number of distinct groups accumulated so far —
// the quantity out-of-core aggregation compares against its memory
// charge to detect skewed partitions.
func (p *Partial) Groups() int { return len(p.groups) }

// Fold accumulates every row of st into the partial state.
func (p *Partial) Fold(st *tuple.SubTable) error {
	if st == nil || st.NumRows() == 0 {
		return nil
	}
	if !st.Schema.Equal(p.schema) {
		return fmt.Errorf("dds: mixed schemas in aggregation input")
	}
	groupIdxs, _ := p.schema.Indexes(p.groupBy)
	itemIdx := make([]int, len(p.items))
	sums := make([]bool, len(p.items))
	for i, it := range p.items {
		sums[i] = summed(it.Agg)
		if it.Attr == "*" {
			itemIdx[i] = -1
		} else {
			itemIdx[i] = p.schema.Index(it.Attr)
		}
	}
	havIdx := -1
	if p.havingOn && p.hAttr != "*" {
		havIdx = p.schema.Index(p.hAttr)
	}
	var keyBuf []byte
	for r := 0; r < st.NumRows(); r++ {
		keyBuf = keyBuf[:0]
		for _, gi := range groupIdxs {
			bits := math.Float32bits(st.Value(r, gi))
			keyBuf = append(keyBuf, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
		}
		g, ok := p.groups[string(keyBuf)]
		if !ok {
			g = &pgroup{key: make([]float32, len(groupIdxs)), accs: make([]accumulator, len(p.items))}
			for i, gi := range groupIdxs {
				g.key[i] = st.Value(r, gi)
			}
			p.groups[string(keyBuf)] = g
		}
		for i := range p.items {
			if itemIdx[i] < 0 {
				g.accs[i].add(0, false) // COUNT(*): value irrelevant
			} else {
				g.accs[i].add(st.Value(r, itemIdx[i]), sums[i])
			}
		}
		if p.havingOn {
			if havIdx < 0 {
				g.hav.add(0, false)
			} else {
				g.hav.add(st.Value(r, havIdx), p.hSum)
			}
		}
	}
	return nil
}

// Merge folds another partial (same specification) into p. The result
// does not depend on merge order.
func (p *Partial) Merge(o *Partial) error {
	if o == nil {
		return nil
	}
	if len(o.items) != len(p.items) {
		return fmt.Errorf("dds: merging partials with different item counts")
	}
	for key, og := range o.groups {
		g, ok := p.groups[key]
		if !ok {
			p.groups[key] = og
			continue
		}
		for i := range g.accs {
			g.accs[i].merge(&og.accs[i])
		}
		g.hav.merge(&og.hav)
	}
	return nil
}

// Finalize produces the output table (group-by attrs then one column per
// item, see AggSchema), filtered by having and ordered by ascending group
// key under totalKey. Results round once: SUM is the exact sum rounded
// to float64 and then to float32, AVG is that float64 divided by the
// count and rounded to float32.
func (p *Partial) Finalize(having *query.Having) (*tuple.SubTable, error) {
	schema, err := AggSchema(p.schema, p.items, p.groupBy)
	if err != nil {
		return nil, err
	}
	out := tuple.NewSubTable(tuple.ID{Table: -3, Chunk: -1}, schema, len(p.groups))

	ordered := make([]*pgroup, 0, len(p.groups))
	for _, g := range p.groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i].key, ordered[j].key
		for k := range a {
			if ka, kb := totalKey(a[k]), totalKey(b[k]); ka != kb {
				return ka < kb
			}
		}
		return false
	})
	row := make([]float32, schema.NumAttrs())
	for _, g := range ordered {
		if having != nil && !evalHaving(having, &g.hav) {
			continue
		}
		copy(row, g.key)
		for i, it := range p.items {
			row[len(g.key)+i] = float32(g.accs[i].result(it.Agg))
		}
		out.AppendRow(row...)
	}
	return out, nil
}

// AggSchema returns the output schema Partial.Finalize produces for a
// specification, without evaluating anything: the group-by attributes
// (original kinds) followed by one Measure column per item, named like
// "avg_wp" or "count". Plan construction uses it to type an aggregation
// node statically.
func AggSchema(schema tuple.Schema, items []query.SelectItem, groupBy []string) (tuple.Schema, error) {
	groupIdxs, err := schema.Indexes(groupBy)
	if err != nil {
		return tuple.Schema{}, err
	}
	for _, it := range items {
		if it.Star || it.Agg == query.AggNone {
			return tuple.Schema{}, fmt.Errorf("dds: aggregation requires aggregate items, got %+v", it)
		}
		if it.Attr != "*" && schema.Index(it.Attr) < 0 {
			return tuple.Schema{}, fmt.Errorf("dds: no attribute %q to aggregate", it.Attr)
		}
	}
	attrs := make([]tuple.Attr, 0, len(groupBy)+len(items))
	for _, gi := range groupIdxs {
		attrs = append(attrs, schema.Attrs[gi])
	}
	for _, it := range items {
		attrs = append(attrs, tuple.Attr{Name: aggColName(it), Kind: tuple.Measure})
	}
	return tuple.Schema{Attrs: attrs}, nil
}

// aggColName derives the output column name of an aggregate item.
func aggColName(it query.SelectItem) string {
	name := map[query.Agg]string{
		query.AggAvg: "avg", query.AggSum: "sum", query.AggMin: "min",
		query.AggMax: "max", query.AggCount: "count",
	}[it.Agg]
	if it.Attr == "*" {
		return name
	}
	return name + "_" + it.Attr
}

// accumulator folds one column of one group. The exact sum is kept only
// for SUM and AVG, the aggregates that read it.
type accumulator struct {
	count    int64
	min, max float32
	sum      exactSum
}

func summed(agg query.Agg) bool { return agg == query.AggSum || agg == query.AggAvg }

func (a *accumulator) add(v float32, sum bool) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		k := totalKey(v)
		if k < totalKey(a.min) {
			a.min = v
		}
		if k > totalKey(a.max) {
			a.max = v
		}
	}
	a.count++
	if sum {
		a.sum.add(v)
	}
}

// merge folds another accumulator's state into a.
func (a *accumulator) merge(o *accumulator) {
	if o.count == 0 {
		return
	}
	if a.count == 0 {
		*a = *o
		return
	}
	if totalKey(o.min) < totalKey(a.min) {
		a.min = o.min
	}
	if totalKey(o.max) > totalKey(a.max) {
		a.max = o.max
	}
	a.count += o.count
	a.sum.merge(&o.sum)
}

func (a *accumulator) result(agg query.Agg) float64 {
	switch agg {
	case query.AggAvg:
		if a.count == 0 {
			return math.NaN()
		}
		return a.sum.float64() / float64(a.count)
	case query.AggSum:
		return a.sum.float64()
	case query.AggMin:
		return float64(a.min)
	case query.AggMax:
		return float64(a.max)
	case query.AggCount:
		return float64(a.count)
	}
	return math.NaN()
}

func evalHaving(h *query.Having, acc *accumulator) bool {
	v := acc.result(h.Agg)
	switch h.Op {
	case "=":
		return v == h.Val
	case "<":
		return v < h.Val
	case "<=":
		return v <= h.Val
	case ">":
		return v > h.Val
	case ">=":
		return v >= h.Val
	}
	return false
}
