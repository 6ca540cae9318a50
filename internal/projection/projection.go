// Package projection provides Euclidean projections onto the feasible sets
// that arise in the load-balancing subproblem P2 (eq. 19): box constraints
// 0 ≤ y ≤ 1 (eq. 11, tightened to y ≤ x when the placement is fixed) and
// the SBS bandwidth knapsack Σ λ y ≤ B (eq. 2). The first-order solver in
// package convex composes these with gradient steps.
package projection

import (
	"errors"
	"fmt"
	"math"

	"edgecache/internal/mat"
)

// ErrInfeasible reports an empty feasible set (e.g. Σ c·lo > b).
var ErrInfeasible = errors.New("projection: feasible set is empty")

// bisectIters bounds the bisection loops; the loops also exit early once
// the bracket or the constraint residual is inside float64 noise, so this
// is a safety cap, not the typical iteration count.
const bisectIters = 90

// Box writes the projection of z onto the box [lo_i, hi_i] into dst and
// returns dst. dst may alias z. It panics on length mismatch or on an
// inverted box (lo > hi), which indicate solver construction bugs.
func Box(dst, z, lo, hi []float64) []float64 {
	if len(dst) != len(z) || len(z) != len(lo) || len(lo) != len(hi) {
		panic(fmt.Sprintf("projection: Box length mismatch %d/%d/%d/%d", len(dst), len(z), len(lo), len(hi)))
	}
	for i, v := range z {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("projection: inverted box [%g, %g] at %d", lo[i], hi[i], i))
		}
		dst[i] = mat.Clamp(v, lo[i], hi[i])
	}
	return dst
}

// BoxKnapsack writes into dst the projection of z onto
//
//	{ y : lo ≤ y ≤ hi,  Σ_i c_i y_i ≤ b },   c ≥ 0,
//
// and returns dst. dst may alias z. The solution has the KKT form
// y_i = clamp(z_i − θ c_i, lo_i, hi_i) for the smallest θ ≥ 0 that
// satisfies the knapsack row; θ is located by monotone bisection.
func BoxKnapsack(dst, z, lo, hi, c []float64, b float64) ([]float64, error) {
	if len(dst) != len(z) || len(z) != len(lo) || len(lo) != len(hi) || len(hi) != len(c) {
		panic(fmt.Sprintf("projection: BoxKnapsack length mismatch %d/%d/%d/%d/%d",
			len(dst), len(z), len(lo), len(hi), len(c)))
	}
	for i, ci := range c {
		if ci < 0 {
			panic(fmt.Sprintf("projection: negative knapsack weight c[%d] = %g", i, ci))
		}
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("projection: inverted box [%g, %g] at %d", lo[i], hi[i], i))
		}
	}

	// Feasibility: the box's cheapest point must fit the knapsack.
	var minLoad float64
	for i, ci := range c {
		minLoad += ci * lo[i]
	}
	if minLoad > b+1e-9*(1+math.Abs(b)) {
		return nil, fmt.Errorf("%w: Σ c·lo = %g > b = %g", ErrInfeasible, minLoad, b)
	}

	// θ = 0 is the plain box projection; accept it when it already fits.
	if knapsackLoad(z, lo, hi, c, 0) <= b {
		return Box(dst, z, lo, hi), nil
	}

	// Bracket: at θmax every weighted coordinate is at its lower bound.
	var thetaMax float64
	for i, ci := range c {
		if ci == 0 {
			continue
		}
		if t := (z[i] - lo[i]) / ci; t > thetaMax {
			thetaMax = t
		}
	}
	loT, hiT := 0.0, thetaMax
	resTol := 1e-10 * (1 + math.Abs(b))
	for iter := 0; iter < bisectIters && hiT-loT > 1e-13*(1+hiT); iter++ {
		mid := 0.5 * (loT + hiT)
		l := knapsackLoad(z, lo, hi, c, mid)
		if l > b {
			loT = mid
		} else {
			hiT = mid
			if b-l <= resTol {
				break
			}
		}
	}
	theta := hiT // the feasible end of the bracket
	for i := range z {
		dst[i] = mat.Clamp(z[i]-theta*c[i], lo[i], hi[i])
	}
	return dst, nil
}

// knapsackLoad evaluates the knapsack row Σ_i c_i·clamp(z_i − θ c_i, lo_i,
// hi_i) — one bisection probe of BoxKnapsack. The slices are re-sliced to a
// common length so the compiler drops the per-element bounds checks: this
// probe runs up to bisectIters times per projection and dominates the P2
// solve profile.
func knapsackLoad(z, lo, hi, c []float64, theta float64) float64 {
	z = z[:len(c)]
	lo = lo[:len(c)]
	hi = hi[:len(c)]
	var s float64
	for i, ci := range c {
		if ci == 0 {
			continue
		}
		v := z[i] - theta*ci
		if v < lo[i] {
			v = lo[i]
		} else if v > hi[i] {
			v = hi[i]
		}
		s += ci * v
	}
	return s
}

// unitLoad is knapsackLoad for the unit box lo ≡ 0, hi ≡ 1.
func unitLoad(z, c []float64, theta float64) float64 {
	z = z[:len(c)]
	var s float64
	for i, ci := range c {
		if ci == 0 {
			continue
		}
		v := z[i] - theta*ci
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		s += ci * v
	}
	return s
}

// UnitBoxKnapsack writes into dst the projection of z onto the unit-box
// knapsack { y : 0 ≤ y ≤ 1, Σ_i c_i y_i ≤ b }, c ≥ 0 — the dual-iteration
// fast path of P2, where the box never tightens. It executes the same
// float64 operation sequence as BoxKnapsack with lo ≡ 0, hi ≡ 1 (so the
// two are interchangeable bit for bit), minus the two bound-vector loads
// per probed coordinate.
func UnitBoxKnapsack(dst, z, c []float64, b float64) ([]float64, error) {
	if len(dst) != len(z) || len(z) != len(c) {
		panic(fmt.Sprintf("projection: UnitBoxKnapsack length mismatch %d/%d/%d", len(dst), len(z), len(c)))
	}
	for i, ci := range c {
		if ci < 0 {
			panic(fmt.Sprintf("projection: negative knapsack weight c[%d] = %g", i, ci))
		}
	}
	// Feasibility: Σ c·lo = 0 must fit the knapsack (b may be negative).
	if 0 > b+1e-9*(1+math.Abs(b)) {
		return nil, fmt.Errorf("%w: Σ c·lo = %g > b = %g", ErrInfeasible, 0.0, b)
	}

	if unitLoad(z, c, 0) <= b {
		z = z[:len(dst)]
		for i, v := range z {
			dst[i] = mat.Clamp(v, 0, 1)
		}
		return dst, nil
	}

	var thetaMax float64
	for i, ci := range c {
		if ci == 0 {
			continue
		}
		if t := z[i] / ci; t > thetaMax {
			thetaMax = t
		}
	}
	loT, hiT := 0.0, thetaMax
	resTol := 1e-10 * (1 + math.Abs(b))
	for iter := 0; iter < bisectIters && hiT-loT > 1e-13*(1+hiT); iter++ {
		mid := 0.5 * (loT + hiT)
		l := unitLoad(z, c, mid)
		if l > b {
			loT = mid
		} else {
			hiT = mid
			if b-l <= resTol {
				break
			}
		}
	}
	theta := hiT // the feasible end of the bracket
	for i := range z {
		dst[i] = mat.Clamp(z[i]-theta*c[i], 0, 1)
	}
	return dst, nil
}
