package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sciview"
	"sciview/internal/tuple"
)

// floatTol is the relative tolerance allowed on a GH result value that is
// not bit-identical to the IJ reference: GH folds SUM/AVG partials in
// arrival order, which varies from run to run (a known defect), so its
// float aggregates may differ from the reference in the last bits.
const floatTol = 1e-4

// reference is the expected result of one statement at one dataset
// version, computed by an unbudgeted IJ run.
type reference struct {
	cols []string
	rows [][]float32
	fp   uint64
	// sorted holds rows in canonical order, for order-insensitive checks,
	// and sortedFP their fingerprint.
	sorted   [][]float32
	sortedFP uint64
}

// verdict classifies one measured result against its reference.
type verdict int

const (
	exact   verdict = iota // byte-identical
	inexact                // equal only with GH's leeway (see ghEquivalent)
	wrong
)

func newReference(cols []string, rows [][]float32) *reference {
	ref := &reference{cols: cols, rows: rows, fp: fingerprint(cols, rowSlice(rows))}
	ref.sorted = canonical(rows)
	ref.sortedFP = fingerprint(cols, rowSlice(ref.sorted))
	return ref
}

// table is the read access fingerprint needs; result tables, public
// tables and copied rows all provide it.
type table interface {
	NumRows() int
	Value(row, col int) float32
}

// rowSlice adapts copied rows to table.
type rowSlice [][]float32

func (r rowSlice) NumRows() int               { return len(r) }
func (r rowSlice) Value(row, col int) float32 { return r[row][col] }

// fingerprint hashes a result's column names and row values in order
// (FNV-1a over the names and the values' IEEE bits).
func fingerprint(cols []string, t table) uint64 {
	h := hashString(fnvOffset, strings.Join(cols, ","))
	for r := 0; r < t.NumRows(); r++ {
		for c := range cols {
			h = hashValue(h, t.Value(r, c))
		}
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hashValue(h uint64, v float32) uint64 {
	b := math.Float32bits(v)
	for k := 0; k < 4; k++ {
		h = (h ^ uint64(byte(b>>(8*k)))) * fnvPrime
	}
	return h
}

// canonical returns a copy of rows sorted lexicographically.
func canonical(rows [][]float32) [][]float32 {
	out := append([][]float32(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return lessRow(out[i], out[j]) })
	return out
}

func lessRow(a, b []float32) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// subTableRows copies a result table's rows out.
func subTableRows(st *tuple.SubTable) ([]string, [][]float32) {
	rows := make([][]float32, st.NumRows())
	for i := range rows {
		rows[i] = st.Row(i, nil)
	}
	return st.Schema.Names(), rows
}

// tableRows copies a public result table's rows out.
func tableRows(t *sciview.Table) ([]string, [][]float32) {
	rows := make([][]float32, t.NumRows())
	for i := range rows {
		rows[i] = t.Row(i, nil)
	}
	return t.Columns(), rows
}

// ghEquivalent reports whether a GH result that is not byte-identical to
// the reference still matches it with GH's leeway: row order, float
// tolerance, and — for a LIMIT without ORDER BY — any limit rows of the
// unlimited result full.
func ghEquivalent(ref, full *reference, limit int, cols []string, rows [][]float32) bool {
	if strings.Join(cols, ",") != strings.Join(ref.cols, ",") {
		return false
	}
	if limit > 0 {
		return len(rows) == limit && subset(rows, full.sorted)
	}
	if len(rows) != len(ref.rows) {
		return false
	}
	got := canonical(rows)
	for i := range got {
		for k := range got[i] {
			if !near(got[i][k], ref.sorted[i][k]) {
				return false
			}
		}
	}
	return true
}

func near(a, b float32) bool {
	if a == b {
		return true
	}
	d := math.Abs(float64(a) - float64(b))
	return d <= floatTol*math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
}

// subset reports whether every row occurs in the sorted multiset full, no
// more often than it does there.
func subset(rows, full [][]float32) bool {
	used := make(map[int]bool, len(rows))
	for _, r := range rows {
		i := sort.Search(len(full), func(i int) bool { return !lessRow(full[i], r) })
		for i < len(full) && used[i] {
			i++
		}
		if i >= len(full) || lessRow(r, full[i]) {
			return false
		}
		used[i] = true
	}
	return true
}

// referenceSystem stands up the reference system over ds: forced IJ,
// unbudgeted and unthrottled, with V1 defined.
func referenceSystem(ds *sciview.Dataset, spec sciview.ClusterSpec) (*sciview.System, error) {
	sys, err := sciview.NewSystem(ds, sciview.ClusterSpec{StorageNodes: spec.StorageNodes, ComputeNodes: spec.ComputeNodes})
	if err != nil {
		return nil, err
	}
	if err := sys.ForceEngine("ij"); err != nil {
		return nil, err
	}
	if _, err := sys.Exec(viewDDL); err != nil {
		return nil, err
	}
	return sys, nil
}

// referencesOn evaluates the corpus on a reference system whose dataset
// currently covers grid g. Each result's row count, and the value of a
// whole-view COUNT(*), must match what g implies: the references come
// from the program under test, so these are the checks that do not.
func referencesOn(sys *sciview.System, corpus []stmt, g sciview.Dims) ([]*reference, *reference, error) {
	run := func(sql string, rows int) (*reference, error) {
		res, err := sys.Exec(sql)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", sql, err)
		}
		ref := newReference(tableRows(res.Rows))
		if len(ref.rows) != rows {
			return nil, fmt.Errorf("reference %q: %d rows, grid %v implies %d", sql, len(ref.rows), g, rows)
		}
		return ref, nil
	}
	refs := make([]*reference, len(corpus))
	for i, s := range corpus {
		ref, err := run(s.sql, s.rows(g))
		if err != nil {
			return nil, nil, err
		}
		if s.count && ref.rows[0][0] != float32(cells(g)) {
			return nil, nil, fmt.Errorf("reference %q: count %g, grid %v has %d cells", s.sql, ref.rows[0][0], g, cells(g))
		}
		refs[i] = ref
	}
	full, err := run("SELECT * FROM V1", cells(g))
	if err != nil {
		return nil, nil, err
	}
	return refs, full, nil
}
