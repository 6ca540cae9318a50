// Package mat provides the small dense vector and matrix kernels shared by
// the optimization substrates (simplex tableau, first-order convex solver,
// projections). It is deliberately minimal: the solvers in this repository
// work on problems with at most a few thousand variables, so clarity wins
// over cache-blocking tricks.
package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product Σ_i a_i b_i. It panics if the lengths
// differ, which always indicates a programming error in a solver.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place. It panics on length mismatch.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every entry of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x, computed with scaling to avoid
// overflow for large entries.
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dist2 length mismatch %d vs %d", len(a), len(b)))
	}
	var ssq float64
	for i, v := range a {
		d := v - b[i]
		ssq += d * d
	}
	return math.Sqrt(ssq)
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewDense allocates a zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: NewDense(%d, %d) with negative dimension", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the (i, j) entry.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec computes out = M·x. out must have length Rows and x length Cols.
func (m *Dense) MulVec(x, out []float64) {
	if len(x) != m.Cols || len(out) != m.Rows {
		panic(fmt.Sprintf("mat: MulVec shapes (%d, %d)·%d → %d", m.Rows, m.Cols, len(x), len(out)))
	}
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}
