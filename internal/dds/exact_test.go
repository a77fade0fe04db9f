package dds

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"sciview/internal/query"
	"sciview/internal/tuple"
)

// hostileFloats mixes every exponent range a float32 has: normals of
// both signs, subnormals, the extremes, and zeros.
func hostileFloats(r *rand.Rand, n int) []float32 {
	vs := []float32{
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, 0, float32(math.Copysign(0, -1)), 1, -1,
	}
	for len(vs) < n {
		var v float32
		switch r.Intn(4) {
		case 0: // any finite bit pattern
			for {
				v = math.Float32frombits(r.Uint32())
				if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
					break
				}
			}
		case 1: // subnormal
			v = math.Float32frombits(r.Uint32() & 0x807fffff)
		case 2: // near 1, where float64 folding order shows
			v = float32(r.NormFloat64())
		default:
			v = float32(r.NormFloat64() * 1e30)
		}
		vs = append(vs, v)
	}
	return vs
}

// bigSum is the reference: math/big addition at a precision that makes
// every partial sum exact, rounded to float64 once.
func bigSum(vs []float32) float64 {
	sum := new(big.Float).SetPrec(2048)
	for _, v := range vs {
		sum.Add(sum, new(big.Float).SetPrec(2048).SetFloat64(float64(v)))
	}
	f, _ := sum.Float64()
	return f
}

func TestExactSumMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		vs := hostileFloats(r, 1+r.Intn(4096))
		want := bigSum(vs)
		var s exactSum
		for _, v := range vs {
			s.add(v)
		}
		if got := s.float64(); got != want {
			t.Fatalf("trial %d: exact sum %v, big %v", trial, got, want)
		}
		// Shuffled and split into merged partials: the same bits.
		r.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		var a, b exactSum
		cut := r.Intn(len(vs) + 1)
		for _, v := range vs[:cut] {
			a.add(v)
		}
		for _, v := range vs[cut:] {
			b.add(v)
		}
		b.merge(&a)
		if got := b.float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: merged sum %v, big %v", trial, got, want)
		}
	}
}

func TestExactSumCancellationAndRounding(t *testing.T) {
	cases := []struct {
		name string
		vs   []float32
		want float64
	}{
		// float64 folding loses the 1 against 2^128.
		{"cancel", []float32{math.MaxFloat32, 1, -math.MaxFloat32}, 1},
		{"smallest", []float32{math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32}, 2 * math.SmallestNonzeroFloat32},
		{"zeros", []float32{0, float32(math.Copysign(0, -1))}, 0},
		{"negative", []float32{-3, 1}, -2},
		// 2^60 + 2^7 + 2^-149 sits just above a float64 tie at bit 7: the
		// sticky bit must round it up.
		{"sticky", []float32{1 << 60, 1 << 7, math.SmallestNonzeroFloat32}, (1 << 60) + (1 << 8)},
		// An exact tie rounds to even.
		{"tie-even", []float32{1 << 60, 1 << 7}, 1 << 60},
	}
	for _, tc := range cases {
		var s exactSum
		for _, v := range tc.vs {
			s.add(v)
		}
		if got := s.float64(); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestExactSumNonFinite(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	cases := []struct {
		vs   []float32
		want float64
	}{
		{[]float32{1, inf}, math.Inf(1)},
		{[]float32{-inf, 1}, math.Inf(-1)},
		{[]float32{inf, -inf}, math.NaN()},
		{[]float32{1, nan, 2}, math.NaN()},
	}
	for _, tc := range cases {
		var s exactSum
		for _, v := range tc.vs {
			s.add(v)
		}
		got := s.float64()
		if math.IsNaN(tc.want) != math.IsNaN(got) || !math.IsNaN(got) && got != tc.want {
			t.Errorf("%v: %v, want %v", tc.vs, got, tc.want)
		}
	}
}

// TestExactSumNormalizes crosses the carry threshold with digits near
// their bound: the value must survive the normalization.
func TestExactSumNormalizes(t *testing.T) {
	var s exactSum
	vs := []float32{math.MaxFloat32, -1.5, 3e-40, 7}
	for i := 0; i < 3; i++ {
		s.pending = sumNorm - 2
		for _, v := range vs {
			s.add(v)
		}
	}
	all := append(append(append([]float32(nil), vs...), vs...), vs...)
	if got, want := s.float64(), bigSum(all); got != want {
		t.Errorf("after normalization: %v, want %v", got, want)
	}
}

func TestTotalKeyOrder(t *testing.T) {
	ordered := []float32{
		float32(math.Inf(-1)), -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32,
		float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, 1,
		math.MaxFloat32, float32(math.Inf(1)), float32(math.NaN()),
	}
	for i := 1; i < len(ordered); i++ {
		if totalKey(ordered[i-1]) >= totalKey(ordered[i]) {
			t.Errorf("totalKey(%v) >= totalKey(%v)", ordered[i-1], ordered[i])
		}
	}
}

// TestPartialOrderIndependent folds the same hostile rows in many
// orders and splits: SUM/AVG/MIN/MAX output bytes never change, and SUM
// is the correctly rounded exact sum.
func TestPartialOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	schema := tuple.NewSchema(
		tuple.Attr{Name: "g", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
	vs := hostileFloats(r, 2000)
	// Bring the sums into float32 range so the SUM column is finite.
	for i := range vs {
		vs[i] = float32(float64(vs[i]) * 1e-20)
	}
	groups := make([]float32, len(vs))
	for i := range groups {
		groups[i] = float32(r.Intn(3))
	}
	items := []query.SelectItem{
		{Attr: "v", Agg: query.AggSum}, {Attr: "v", Agg: query.AggAvg},
		{Attr: "v", Agg: query.AggMin}, {Attr: "v", Agg: query.AggMax},
	}
	var first []byte
	for trial := 0; trial < 8; trial++ {
		perm := r.Perm(len(vs))
		var inputs []*tuple.SubTable
		cur := tuple.NewSubTable(tuple.ID{}, schema, 0)
		for _, i := range perm {
			cur.AppendRow(groups[i], vs[i])
			if r.Intn(50) == 0 {
				inputs = append(inputs, cur)
				cur = tuple.NewSubTable(tuple.ID{}, schema, 0)
			}
		}
		inputs = append(inputs, cur)
		out, err := aggregateSplit(inputs, items, []string{"g"}, nil, trial%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		enc := tuple.Encode(nil, out)
		if first == nil {
			first = enc
			for row := 0; row < out.NumRows(); row++ {
				var gvs []float32
				for i, g := range groups {
					if g == out.Value(row, 0) {
						gvs = append(gvs, vs[i])
					}
				}
				if want := float32(bigSum(gvs)); out.Value(row, 1) != want {
					t.Errorf("group %v: SUM %v, want %v", out.Value(row, 0), out.Value(row, 1), want)
				}
			}
			continue
		}
		if string(enc) != string(first) {
			t.Fatalf("trial %d: output bytes differ from trial 0", trial)
		}
	}
}
