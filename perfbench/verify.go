package main

import (
	"math"

	"smat/internal/matrix"
)

// eps is the unit roundoff of float64, the unit of the per-row bound.
const eps = 0x1p-52

// reference is an independent check of y = A·x: the product computed here,
// serially in float64 from the CSR arrays, with a per-row error bound
// eps·(deg+4)·(Σ|aᵢⱼxⱼ| + |yᵢ|). Each of the deg products and the
// accumulation may round once per term in any order, and the headroom covers
// the final rounding of near-cancelled sums; an output off by a whole term
// falls far outside it.
type reference struct {
	want, tol []float64
}

func newReference(m *matrix.CSR[float64], x []float64) *reference {
	r := &reference{want: make([]float64, m.Rows), tol: make([]float64, m.Rows)}
	for i := 0; i < m.Rows; i++ {
		var s, abs float64
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for jj := lo; jj < hi; jj++ {
			p := m.Vals[jj] * x[m.ColIdx[jj]]
			s += p
			abs += math.Abs(p)
		}
		r.want[i] = s
		r.tol[i] = eps * float64(hi-lo+4) * (abs + math.Abs(s))
	}
	return r
}

// matches reports whether y is within the per-row bound everywhere. A NaN
// (such as the sentinel a skipped row leaves) never matches.
func (r *reference) matches(y []float64) bool {
	if len(y) != len(r.want) {
		return false
	}
	for i, v := range y {
		if !(math.Abs(v-r.want[i]) <= r.tol[i]) {
			return false
		}
	}
	return true
}

// matchesColumn checks column j of an interleaved block yb of width k.
func (r *reference) matchesColumn(yb []float64, k, j int) bool {
	if len(yb) != len(r.want)*k {
		return false
	}
	for i := range r.want {
		if !(math.Abs(yb[i*k+j]-r.want[i]) <= r.tol[i]) {
			return false
		}
	}
	return true
}

// poison fills y with NaN so an output row a kernel never writes fails the
// check instead of passing with a stale value.
func poison(y []float64) {
	nan := math.NaN()
	for i := range y {
		y[i] = nan
	}
}

// trueResidual returns ‖b − A·x‖₂ / ‖b‖₂ computed serially in float64 from
// the CSR arrays, independent of the operator the solver iterated.
func trueResidual(m *matrix.CSR[float64], b, x []float64) float64 {
	var rr, bb float64
	for i := 0; i < m.Rows; i++ {
		s := b[i]
		for jj := m.RowPtr[i]; jj < m.RowPtr[i+1]; jj++ {
			s -= m.Vals[jj] * x[m.ColIdx[jj]]
		}
		rr += s * s
		bb += b[i] * b[i]
	}
	if bb == 0 {
		return math.Sqrt(rr)
	}
	return math.Sqrt(rr / bb)
}

// trueResidualColumn is trueResidual for column j of interleaved blocks.
func trueResidualColumn(m *matrix.CSR[float64], bb, xb []float64, k, j int) float64 {
	b := make([]float64, m.Rows)
	x := make([]float64, m.Cols)
	for i := range b {
		b[i] = bb[i*k+j]
	}
	for i := range x {
		x[i] = xb[i*k+j]
	}
	return trueResidual(m, b, x)
}
