// Package dds implements Derived Data Sources: the layered views built on
// top of Basic Data Sources. The join-based DDS (JoinView) is the paper's
// focus; this package also provides the aggregation DDS state
// (AVG/SUM/MIN/MAX/COUNT with GROUP BY and HAVING), the paper's stated
// future-work extension, which the plan layer's aggregate operator folds
// over a join or a table scan.
package dds

import (
	"fmt"

	"sciview/internal/engine"
	"sciview/internal/metadata"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

// JoinView is a join-based Derived Data Source: V = Left ⊕attrs Right,
// optionally restricted by a base WHERE clause fixed at view-definition
// time.
type JoinView struct {
	Name      string
	Left      string
	Right     string
	JoinAttrs []string
	Where     []query.Pred
}

// FromCreate builds a view definition from a parsed CREATE VIEW statement,
// validating the referenced tables and join attributes against the catalog.
func FromCreate(cat *metadata.Catalog, cv *query.CreateView) (*JoinView, error) {
	left, err := cat.Table(cv.Left)
	if err != nil {
		return nil, err
	}
	right, err := cat.Table(cv.Right)
	if err != nil {
		return nil, err
	}
	for _, a := range cv.JoinAttrs {
		if left.Schema.Index(a) < 0 {
			return nil, fmt.Errorf("dds: view %s: table %s has no join attribute %q", cv.Name, cv.Left, a)
		}
		if right.Schema.Index(a) < 0 {
			return nil, fmt.Errorf("dds: view %s: table %s has no join attribute %q", cv.Name, cv.Right, a)
		}
	}
	return &JoinView{
		Name: cv.Name, Left: cv.Left, Right: cv.Right,
		JoinAttrs: cv.JoinAttrs, Where: cv.Where,
	}, nil
}

// Schema returns the view's output schema.
func (v *JoinView) Schema(cat *metadata.Catalog) (tuple.Schema, error) {
	left, err := cat.Table(v.Left)
	if err != nil {
		return tuple.Schema{}, err
	}
	right, err := cat.Table(v.Right)
	if err != nil {
		return tuple.Schema{}, err
	}
	return left.Schema.JoinResult(right.Schema, v.JoinAttrs, "r_"), nil
}

// Request assembles the engine request for a query against the view,
// merging the view's base predicates with the query's.
func (v *JoinView) Request(extra []query.Pred) (engine.Request, error) {
	merged, err := mergePredSets(v.Where, extra)
	if err != nil {
		return engine.Request{}, err
	}
	return engine.Request{
		LeftTable:  v.Left,
		RightTable: v.Right,
		JoinAttrs:  v.JoinAttrs,
		Filter:     query.ToRange(merged),
	}, nil
}

// MergePreds conjoins two predicate lists, intersecting intervals on
// shared attributes (view layering uses it to stack restrictions).
func MergePreds(a, b []query.Pred) ([]query.Pred, error) {
	return mergePredSets(a, b)
}

// mergePredSets conjoins two predicate lists, intersecting intervals on
// shared attributes.
func mergePredSets(a, b []query.Pred) ([]query.Pred, error) {
	idx := make(map[string]int)
	var out []query.Pred
	for _, p := range append(append([]query.Pred(nil), a...), b...) {
		if i, ok := idx[p.Attr]; ok {
			if p.Lo > out[i].Lo {
				out[i].Lo = p.Lo
			}
			if p.Hi < out[i].Hi {
				out[i].Hi = p.Hi
			}
			if out[i].Lo > out[i].Hi {
				return nil, fmt.Errorf("dds: contradictory constraints on %q", p.Attr)
			}
		} else {
			idx[p.Attr] = len(out)
			out = append(out, p)
		}
	}
	return out, nil
}
